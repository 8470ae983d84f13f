//! The seeded instruction generator the randomized tests share: it draws
//! uniformly from the whole decoded instruction space — every operand kind,
//! full-width immediates, displacements and branch offsets. `jm-mdp`'s
//! lowering round trip includes this file by path.

use jm_isa::instr::{Alu1Op, AluOp, Cond, Instruction, MsgPriority, StatClass};
use jm_isa::operand::{Dst, Index, MemRef, Special, Src};
use jm_isa::reg::{AReg, DReg};
use jm_isa::tag::Tag;
use jm_isa::word::Word;
use jm_prng::Prng;

fn arb_dreg(g: &mut Prng) -> DReg {
    DReg::from_index(g.range_usize(0, 4))
}

fn arb_areg(g: &mut Prng) -> AReg {
    AReg::from_index(g.range_usize(0, 4))
}

fn arb_tag(g: &mut Prng) -> Tag {
    Tag::from_bits(g.range_u32(0, 16) as u8)
}

fn arb_word(g: &mut Prng) -> Word {
    Word::new(arb_tag(g), g.next_u32())
}

fn arb_mem(g: &mut Prng) -> MemRef {
    let base = arb_areg(g);
    let index = if g.chance(0.5) {
        Index::Disp(g.range_u32(0, 1 << 20))
    } else {
        Index::Reg(arb_dreg(g))
    };
    MemRef { base, index }
}

fn arb_src(g: &mut Prng) -> Src {
    match g.range_u32(0, 6) {
        0 => Src::D(arb_dreg(g)),
        1 => Src::A(arb_areg(g)),
        2 => Src::Imm(arb_word(g)),
        3 => Src::imm(g.next_u32() as i32),
        4 => Src::Mem(arb_mem(g)),
        _ => Src::Sp(Special::from_index(g.range_usize(0, 8))),
    }
}

fn arb_dst(g: &mut Prng) -> Dst {
    match g.range_u32(0, 3) {
        0 => Dst::D(arb_dreg(g)),
        1 => Dst::A(arb_areg(g)),
        _ => Dst::Mem(arb_mem(g)),
    }
}

/// One instruction, any instruction.
pub fn arb_instr(g: &mut Prng) -> Instruction {
    loop {
        match g.range_u32(0, 19) {
            0 => {
                return Instruction::Move {
                    dst: arb_dst(g),
                    src: arb_src(g),
                }
            }
            1 => {
                return Instruction::Alu {
                    op: AluOp::ALL[g.range_usize(0, 18)],
                    dst: arb_dst(g),
                    a: arb_src(g),
                    b: arb_src(g),
                }
            }
            2 => {
                return Instruction::Alu1 {
                    op: Alu1Op::ALL[g.range_usize(0, 3)],
                    dst: arb_dst(g),
                    src: arb_src(g),
                }
            }
            3 => {
                return Instruction::Br {
                    off: g.next_u32() as i32,
                }
            }
            4 => {
                return Instruction::Bc {
                    cond: Cond::ALL[g.range_usize(0, 4)],
                    src: arb_src(g),
                    off: g.next_u32() as i32,
                }
            }
            5 => return Instruction::Jmp { target: arb_src(g) },
            6 => {
                return Instruction::Jal {
                    link: arb_dreg(g),
                    off: g.next_u32() as i32,
                }
            }
            7 => {
                return Instruction::Send {
                    priority: if g.chance(0.5) {
                        MsgPriority::P1
                    } else {
                        MsgPriority::P0
                    },
                    a: arb_src(g),
                    b: g.chance(0.5).then(|| arb_src(g)),
                    end: g.chance(0.5),
                }
            }
            8 => return Instruction::Suspend,
            9 => return Instruction::Resume,
            10 => {
                return Instruction::Rtag {
                    dst: arb_dst(g),
                    src: arb_src(g),
                }
            }
            11 => {
                return Instruction::Wtag {
                    dst: arb_dst(g),
                    src: arb_src(g),
                    tag: arb_src(g),
                }
            }
            12 => {
                return Instruction::Check {
                    dst: arb_dst(g),
                    src: arb_src(g),
                    tag: arb_tag(g),
                }
            }
            13 => {
                return Instruction::Enter {
                    key: arb_src(g),
                    value: arb_src(g),
                }
            }
            14 => {
                return Instruction::Xlate {
                    dst: arb_dst(g),
                    key: arb_src(g),
                }
            }
            15 => {
                return Instruction::Probe {
                    dst: arb_dst(g),
                    key: arb_src(g),
                }
            }
            16 => {
                let class = StatClass::ALL[g.range_usize(0, 7)];
                if class.is_markable() {
                    return Instruction::Mark { class };
                }
                // Unmarkable class drawn: redraw the whole instruction.
            }
            17 => return Instruction::Halt,
            _ => return Instruction::Nop,
        }
    }
}
