//! Textual and GraphViz dumps of IR graphs, used by the figure
//! regeneration harness (Figures 2 and 8 of the paper) and for debugging.

use crate::cfg::Cfg;
use crate::{Graph, NodeId, NodeKind};
use std::fmt::Write as _;

/// Renders the graph as readable text, one block per paragraph:
///
/// ```text
/// B0:
///   v0 Start
///   v3 New C0
///   v4 StoreField F0 (v3, v1)
///   v5 If (v2) ? B1 : B2
/// ```
pub fn dump(graph: &Graph) -> String {
    let cfg = Cfg::build(graph);
    let mut out = String::new();
    for &bid in &cfg.rpo {
        let block = cfg.block(bid);
        let _ = writeln!(
            out,
            "{bid}: preds={:?} succs={:?}",
            block.preds, block.succs
        );
        // Phis of merge-like block heads first.
        let head = block.first();
        if matches!(graph.kind(head), NodeKind::Merge | NodeKind::LoopBegin) {
            for phi in graph.phis_of(head) {
                let _ = writeln!(out, "  {}", describe(graph, phi));
            }
        }
        for &n in block.nodes {
            let _ = writeln!(out, "  {}", describe(graph, n));
        }
        out.push('\n');
    }
    out
}

/// One-line description of a node: id, mnemonic, inputs, frame state.
pub fn describe(graph: &Graph, id: NodeId) -> String {
    let node = graph.node(id);
    let mut s = format!("{id} {}", node.kind.mnemonic());
    if !node.inputs().is_empty() {
        let args: Vec<String> = node.inputs().iter().map(|i| i.to_string()).collect();
        let _ = write!(s, " ({})", args.join(", "));
    }
    if let NodeKind::If = node.kind {
        let succ = node.successors();
        if succ.len() == 2 {
            let _ = write!(s, " ? {} : {}", succ[0], succ[1]);
        }
    }
    if let Some(state) = node.state_after {
        let _ = write!(s, "  @{}", frame_state_brief(graph, state));
    }
    s
}

/// Renders a frame state (and its outer chain) compactly, in the style of
/// the paper's Figure 8: `@M0:5 locals=[v1] stack=[] locks=[]`.
pub fn frame_state_brief(graph: &Graph, state: NodeId) -> String {
    let data = graph.frame_state_data(state);
    let inputs = graph.node(state).inputs();
    let fmt_range = |r: std::ops::Range<usize>| -> String {
        let parts: Vec<String> = inputs[r].iter().map(|v| v.to_string()).collect();
        parts.join(",")
    };
    let mut s = format!(
        "{}:{} locals=[{}] stack=[{}] locks=[{}]",
        data.method,
        data.bci,
        fmt_range(data.locals_range()),
        fmt_range(data.stack_range()),
        fmt_range(data.locks_range()),
    );
    if let Some(outer) = data.outer_index() {
        let _ = write!(s, " outer=({})", frame_state_brief(graph, inputs[outer]));
    }
    s
}

/// Emits a GraphViz `dot` rendering: control edges bold, data edges thin
/// (matching the visual convention of Figure 2 in the paper).
pub fn dump_dot(graph: &Graph, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{title}\" {{");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for n in graph.live_nodes() {
        let kind = graph.kind(n);
        if matches!(kind, NodeKind::FrameState(_)) {
            let _ = writeln!(
                out,
                "  {} [label=\"{} {}\", style=dashed];",
                n.index(),
                n,
                kind.mnemonic()
            );
        } else {
            let _ = writeln!(
                out,
                "  {} [label=\"{} {}\"];",
                n.index(),
                n,
                kind.mnemonic()
            );
        }
    }
    for n in graph.live_nodes() {
        let node = graph.node(n);
        for &succ in node.successors() {
            let _ = writeln!(out, "  {} -> {} [style=bold];", n.index(), succ.index());
        }
        for &input in node.inputs() {
            let _ = writeln!(
                out,
                "  {} -> {} [dir=back, color=gray];",
                input.index(),
                n.index()
            );
        }
        if let Some(state) = node.state_after {
            let _ = writeln!(out, "  {} -> {} [style=dashed];", n.index(), state.index());
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameStateData;
    use pea_bytecode::MethodId;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let ret = g.add(NodeKind::Return, &[p]);
        g.set_next(g.start, ret);
        g
    }

    #[test]
    fn dump_contains_blocks_and_nodes() {
        let g = tiny_graph();
        let text = dump(&g);
        assert!(text.contains("B0"));
        assert!(text.contains("Start"));
        assert!(text.contains("Return"));
    }

    #[test]
    fn describe_shows_inputs() {
        let g = tiny_graph();
        let ret = g
            .live_nodes()
            .find(|&n| matches!(g.kind(n), NodeKind::Return))
            .unwrap();
        let d = describe(&g, ret);
        assert!(d.contains("Return"));
        assert!(d.contains("(v1)"));
    }

    #[test]
    fn frame_state_brief_shows_chain() {
        let mut g = Graph::new();
        let p = g.add(NodeKind::Param { index: 0 }, &[]);
        let outer = g.add_frame_state(FrameStateData::new(MethodId(0), 5, 1, 0, 0, false), &[p]);
        let inner = g.add_frame_state(
            FrameStateData::new(MethodId(1), 9, 2, 0, 0, true),
            &[p, p, outer],
        );
        let s = frame_state_brief(&g, inner);
        assert!(s.contains("M1:9"));
        assert!(s.contains("outer=(M0:5"));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let g = tiny_graph();
        let dot = dump_dot(&g, "test");
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("style=bold"));
    }
}
