//! The replay log format.
//!
//! Any run of the simulator can be turned into a **replay artifact**: a
//! compact binary log ([`ReplayLog`]) holding the machine configuration,
//! the program image, every host-boundary input, and per-interval state
//! hashes. This crate is that format and nothing else — the encoder, the
//! decoder (which treats a log as input from outside the program) and the
//! plain-data types a log is made of. It sits *below* `jm-machine` in the
//! dependency order: `jm-machine` records logs from a running machine and
//! re-executes them under any engine, reporting the first diverging cycle
//! and the first word of state that differs there (`DESIGN.md` §4.8).

#![warn(missing_docs)]

mod log;

pub use crate::log::{
    HostOp, LogError, Record, RecordedConfig, RecordedEngine, RecordedStart, ReplayLog,
    DEFAULT_INTERVAL, MAGIC,
};

#[cfg(test)]
mod tests {
    use super::*;
    use jm_asm::Builder;
    use jm_isa::consts::FaultKind;
    use jm_isa::instr::MsgPriority;
    use jm_isa::node::MeshDims;
    use jm_isa::word::Word;

    fn sample_log() -> ReplayLog {
        let mut b = Builder::new();
        b.reserve("out", jm_asm::Region::Imem, 2);
        b.label("main");
        b.suspend();
        b.label("other");
        b.suspend();
        b.entry("main");
        let program = b.assemble().unwrap();
        let dims = MeshDims::new(2, 2, 2);
        ReplayLog {
            config: RecordedConfig {
                dims,
                start: RecordedStart::AllNodes,
                engine: RecordedEngine::Event,
                threads: 0,
            },
            fault: Some(
                jm_fault::FaultSpec::new(7)
                    .flaky(1000)
                    .checksums(true)
                    .window(jm_fault::FaultWindow::link_down(0, 2, 10, 20)),
            ),
            traffic: Some(
                jm_traffic::TrafficSpec::new(9)
                    .pattern(jm_traffic::TrafficPattern::Hotspot {
                        weight_ppm: 250_000,
                    })
                    .load(120_000)
                    .msg_words(3)
                    .window(5, 500)
                    .handler(17),
            ),
            interval: 16,
            program,
            records: vec![
                Record::Op {
                    cycle: 0,
                    op: HostOp::InstallVectorAll {
                        kind: FaultKind::CFutRead,
                        ip: 1,
                    },
                },
                Record::Op {
                    cycle: 0,
                    op: HostOp::Deliver {
                        node: 3,
                        priority: MsgPriority::P0,
                        words: vec![Word::int(42), Word::NIL],
                    },
                },
                Record::Boundary {
                    cycle: 16,
                    hash: 0xdead_beef,
                },
                Record::Op {
                    cycle: 20,
                    op: HostOp::WriteWord {
                        node: 1,
                        addr: 0x100,
                        word: Word::int(-5),
                    },
                },
                Record::Boundary {
                    cycle: 32,
                    hash: 0x1234,
                },
                Record::End {
                    cycle: 40,
                    hash: 0x5678,
                },
            ],
        }
    }

    #[test]
    fn log_round_trips_through_bytes() {
        let log = sample_log();
        let bytes = log.to_bytes();
        let back = ReplayLog::from_bytes(&bytes).unwrap();
        assert_eq!(back.config, log.config);
        assert_eq!(back.fault, log.fault);
        assert_eq!(back.traffic, log.traffic);
        assert_eq!(back.interval, log.interval);
        assert_eq!(back.records, log.records);
        assert_eq!(back.program.code, log.program.code);
        assert_eq!(back.program.entry, log.program.entry);
        assert_eq!(back.program.code_base, log.program.code_base);
        assert_eq!(back.program.data, log.program.data);
        assert_eq!(back.program.symbols.len(), log.program.symbols.len());
        for (name, value) in log.program.symbols.iter() {
            assert_eq!(back.program.symbols.get(name), Some(value), "{name}");
        }
        // Serialization is canonical: a re-serialization is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
    }
}
