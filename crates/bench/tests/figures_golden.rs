//! Golden outputs for the paper figure/table binaries: each binary's
//! stdout must match `tests/golden/<name>.txt` byte for byte. The
//! simulator is seeded and every binary is deterministic (also across
//! crypto backends), so any difference is a behaviour change.
//!
//! After an intended change to a figure, regenerate its golden with
//! `cargo run -q --release -p doc-bench --bin <name> > crates/bench/tests/golden/<name>.txt`.

use std::process::Command;

fn check(name: &str, exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("spawn figure binary");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "{name} stdout differs from tests/golden/{name}.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            got.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!("golden/", stringify!($name), ".txt")),
            );
        }
    )*};
}

golden! {
    fig1, fig3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig14, fig15,
    table1, table3, table4, table5, compression,
}
