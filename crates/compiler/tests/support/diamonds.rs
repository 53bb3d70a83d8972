//! A method of `n` diamonds over one object's field, shared by the
//! allocation-count and evaluation tests.

use std::fmt::Write as _;

/// `n` diamonds over one object's field, no calls and no profile (so no
/// guards); the object is published at the end, so the escape analysis
/// keeps it virtual through every merge and materializes it once.
pub fn source(n: usize) -> String {
    let mut s = String::from(
        "class Box { field v int }
         static out ref
         method f 2 returns {
            new Box store 2
            load 2 load 1 putfield Box.v\n",
    );
    for i in 0..n {
        let _ = write!(
            s,
            "   load 0 const {i} ifcmp lt Lelse{i}
                load 2 load 2 getfield Box.v load 1 add putfield Box.v
                goto Ljoin{i}
             Lelse{i}:
                load 2 load 2 getfield Box.v const {i} sub putfield Box.v
             Ljoin{i}:\n"
        );
    }
    s.push_str(
        "   load 2 putstatic out
            load 2 getfield Box.v retv
         }",
    );
    s
}
