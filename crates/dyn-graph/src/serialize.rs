//! Model checkpointing: a compact, versioned binary format for saving and
//! restoring a [`Model`]'s parameters.
//!
//! Training sessions the paper targets "may take hours or even days"
//! (§IV-F); checkpointing the master parameter copies is the standard
//! companion feature. The format is self-describing and endian-fixed
//! (little endian), with no external dependencies:
//!
//! ```text
//! magic "DYNG" | version u32 | param_count u32 | lookup_count u32
//! per param:  name_len u32 | name bytes | rows u32 | cols u32 | f32 data
//! per lookup: name_len u32 | name bytes | rows u32 | cols u32 | f32 data
//! ```
//!
//! Gradients are not saved — checkpoints capture values between updates,
//! when gradients are zero by construction.

use std::error::Error;
use std::fmt;

use vpps_tensor::Matrix;

use crate::params::Model;

const MAGIC: &[u8; 4] = b"DYNG";
const VERSION: u32 = 1;

/// Errors from [`load_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadModelError {
    /// The buffer does not start with the format magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// A declared dimension was zero or a length was inconsistent.
    Malformed(&'static str),
}

impl fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadModelError::BadMagic => write!(f, "not a dyn-graph model checkpoint"),
            LoadModelError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            LoadModelError::Truncated => write!(f, "checkpoint truncated"),
            LoadModelError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl Error for LoadModelError {}

/// Serializes the model's parameter values (dense and lookup) to bytes.
pub fn save_model(model: &Model) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(model.num_params() as u32).to_le_bytes());
    out.extend_from_slice(&(model.num_lookups() as u32).to_le_bytes());
    let mut write_entry = |name: &str, m: &Matrix| {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
        for v in m.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    for (_, p) in model.params() {
        write_entry(&p.name, &p.value);
    }
    for (_, l) in model.lookups() {
        write_entry(&l.name, &l.table);
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadModelError> {
        // `n` comes from the file: `pos + n` must not wrap.
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(LoadModelError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, LoadModelError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn matrix(&mut self) -> Result<(String, Matrix), LoadModelError> {
        let name_len = self.u32()? as usize;
        if name_len > 4096 {
            return Err(LoadModelError::Malformed("parameter name too long"));
        }
        let name = String::from_utf8(self.take(name_len)?.to_vec())
            .map_err(|_| LoadModelError::Malformed("parameter name is not UTF-8"))?;
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        if rows == 0 || cols == 0 {
            return Err(LoadModelError::Malformed("zero dimension"));
        }
        let len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or(LoadModelError::Malformed("dimensions overflow"))?;
        let bytes = self.take(len)?;
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok((name, Matrix::from_vec(rows, cols, data)))
    }
}

/// Restores a checkpoint produced by [`save_model`] into a fresh [`Model`].
///
/// The returned model registers parameters in the saved order, so ids match
/// the original model's ids.
///
/// # Errors
///
/// Returns [`LoadModelError`] on malformed input.
pub fn load_model(buf: &[u8]) -> Result<Model, LoadModelError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(LoadModelError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(LoadModelError::BadVersion(version));
    }
    let params = r.u32()? as usize;
    let lookups = r.u32()? as usize;
    let mut model = Model::new(0);
    for _ in 0..params {
        let (name, m) = r.matrix()?;
        let id = if m.rows() == 1 {
            model.add_bias(&name, m.cols())
        } else {
            model.add_matrix(&name, m.rows(), m.cols())
        };
        model
            .param_mut(id)
            .value
            .as_mut_slice()
            .copy_from_slice(m.as_slice());
    }
    for _ in 0..lookups {
        let (name, m) = r.matrix()?;
        let id = model.add_lookup(&name, m.rows(), m.cols());
        model
            .lookup_mut(id)
            .table
            .as_mut_slice()
            .copy_from_slice(m.as_slice());
    }
    if r.pos != buf.len() {
        return Err(LoadModelError::Malformed("trailing bytes"));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> Model {
        let mut m = Model::new(42);
        m.add_matrix("W", 5, 7);
        m.add_bias("b", 7);
        m.add_lookup("emb", 11, 3);
        m
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = sample_model();
        let bytes = save_model(&m);
        let loaded = load_model(&bytes).unwrap();
        assert_eq!(loaded.num_params(), m.num_params());
        assert_eq!(loaded.num_lookups(), m.num_lookups());
        for ((_, a), (_, b)) in m.params().zip(loaded.params()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.value, b.value);
            assert!(b.grad.as_slice().iter().all(|&v| v == 0.0));
        }
        for ((_, a), (_, b)) in m.lookups().zip(loaded.lookups()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.table, b.table);
        }
    }

    #[test]
    fn ids_survive_the_round_trip() {
        let m = sample_model();
        let loaded = load_model(&save_model(&m)).unwrap();
        // Parameter ids are registration-ordered, so index 1 is the bias in
        // both models.
        let (id, p) = loaded.params().nth(1).unwrap();
        assert_eq!(id.index(), 1);
        assert!(p.is_bias());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = save_model(&sample_model());
        bytes[0] = b'X';
        assert_eq!(load_model(&bytes).unwrap_err(), LoadModelError::BadMagic);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = save_model(&sample_model());
        for cut in [3usize, 8, 20, bytes.len() - 1] {
            assert!(load_model(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn overflowing_dimensions_rejected() {
        // A valid 2x2 checkpoint whose header claims 2^31 x 2^31: the byte
        // count wraps `usize` to 0 on 64-bit, which must not reach
        // `Matrix::from_vec`.
        let mut m = Model::new(1);
        m.add_matrix("W", 2, 2);
        let mut bytes = save_model(&m);
        let dims = 16 + 4 + 1; // header, name_len, "W"
        bytes[dims..dims + 4].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        bytes[dims + 4..dims + 8].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert_eq!(
            load_model(&bytes).unwrap_err(),
            LoadModelError::Malformed("dimensions overflow")
        );
        // Large but non-wrapping dimensions are a plain truncation.
        bytes[dims..dims + 4].copy_from_slice(&0xffffu32.to_le_bytes());
        bytes[dims + 4..dims + 8].copy_from_slice(&0xffffu32.to_le_bytes());
        assert_eq!(load_model(&bytes).unwrap_err(), LoadModelError::Truncated);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = save_model(&sample_model());
        bytes.push(0);
        assert_eq!(
            load_model(&bytes).unwrap_err(),
            LoadModelError::Malformed("trailing bytes")
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = save_model(&sample_model());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            load_model(&bytes).unwrap_err(),
            LoadModelError::BadVersion(99)
        );
    }

    #[test]
    fn trained_values_survive() {
        let mut m = sample_model();
        let (id, _) = m.params().next().unwrap();
        m.param_mut(id).value[(2, 3)] = 123.456;
        let loaded = load_model(&save_model(&m)).unwrap();
        assert_eq!(loaded.param(id).value[(2, 3)], 123.456);
    }
}
