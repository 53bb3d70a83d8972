//! Regenerates the paper's evaluation tables — Table 1's three blocks, the
//! §6.1 monitor operations, the §6.2 comparison and the PEA ablations —
//! from one run of every corpus workload per configuration.
//!
//! Usage: `report [PATH]`.
//!
//! Without PATH the tables are printed, each between the markers that
//! name it. With PATH, the text between each `<!-- generated:NAME -->` and
//! `<!-- end generated:NAME -->` in that file is replaced by table NAME and
//! nothing else changes; an unknown, missing, duplicated or unclosed
//! marker exits 2 naming the block. CI runs `report EXPERIMENTS.md` and
//! then fails if the file differs from the commit.

use pea_bench::{render_blocks, run_corpus, splice};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let path = match args.as_slice() {
        [] => None,
        [path] if !path.to_string_lossy().starts_with('-') => Some(PathBuf::from(path)),
        _ => {
            eprintln!("usage: report [PATH]");
            return ExitCode::from(2);
        }
    };
    let doc = match path.as_ref().map(std::fs::read_to_string).transpose() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {}: {e}", path.unwrap_or_default().display());
            return ExitCode::from(2);
        }
    };
    let blocks = render_blocks(&run_corpus());
    let (Some(path), Some(doc)) = (path, doc) else {
        for (name, table) in &blocks {
            println!("<!-- generated:{name} -->\n{table}<!-- end generated:{name} -->\n");
        }
        return ExitCode::SUCCESS;
    };
    match splice(&doc, &blocks) {
        Ok(spliced) if spliced == doc => ExitCode::SUCCESS,
        Ok(spliced) => match std::fs::write(&path, spliced) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}
