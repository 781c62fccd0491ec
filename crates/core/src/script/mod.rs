//! GPU script generation (paper §III-B).
//!
//! Each persistent CTA is a *virtual CISC-like vector processor*; for every
//! batch the host traverses the level-sorted super-graph forward and backward,
//! encodes one instruction stream per processor, and separates consecutive
//! levels with `signal`/`wait` barriers so producers are visible to consumers.

pub mod generate;
pub mod isa;
pub mod validate;

pub use generate::generate_forward_only;
pub use generate::{
    BatchLayout, GeneratedScript, Literal, ParamStage, SchedulePolicy, TableLayout,
};
pub use isa::{Instr, ScriptSet, MAX_TENSOR_LEN};
pub use validate::{validate_protocol, ProtocolError};
