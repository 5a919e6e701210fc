//! Bit-exact run fingerprints for golden tests.

use std::fmt;

/// An ordered list of named `u64` fields that pins a run bit for bit:
/// integers as they are, floats as their `f64::to_bits` pattern. Equality
/// is exact — no tolerance — so two fingerprints match only when every
/// counter and every float bit agrees.
///
/// `Display` renders one `name=value` line, floats in hex.
///
/// # Example
///
/// ```
/// use agentsim_metrics::Fingerprint;
///
/// let f = Fingerprint::new().int("completed", 40).float("p95_s", 1.5);
/// assert_eq!(f.to_string(), "completed=40 p95_s=0x3ff8000000000000");
///
/// // Bit patterns, not values: 0.0 == -0.0 as floats, but not here.
/// let pos = Fingerprint::new().float("wasted_gpu_s", 0.0);
/// let neg = Fingerprint::new().float("wasted_gpu_s", -0.0);
/// assert_ne!(pos, neg);
/// assert_eq!(neg.to_string(), "wasted_gpu_s=0x8000000000000000");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    fields: Vec<(&'static str, Field)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Int(u64),
    Float(u64),
}

impl Fingerprint {
    /// An empty fingerprint.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Appends an integer field.
    pub fn int(mut self, name: &'static str, value: u64) -> Self {
        self.fields.push((name, Field::Int(value)));
        self
    }

    /// Appends a float field, pinned by its bit pattern.
    pub fn float(mut self, name: &'static str, value: f64) -> Self {
        self.fields.push((name, Field::Float(value.to_bits())));
        self
    }

    /// The fields of `self` whose names `other` also carries, in `self`'s
    /// order — the common ground on which two drivers' reports compare.
    pub fn shared_with(&self, other: &Fingerprint) -> Fingerprint {
        let fields = self
            .fields
            .iter()
            .filter(|(name, _)| other.fields.iter().any(|(n, _)| n == name))
            .copied()
            .collect();
        Fingerprint { fields }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, field)) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            match field {
                Field::Int(v) => write!(f, "{name}={v}")?,
                Field::Float(bits) => write!(f, "{name}={bits:#x}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_fields_keep_the_receivers_order() {
        let a = Fingerprint::new().int("a", 1).int("b", 2).float("c", 3.0);
        let b = Fingerprint::new().float("c", 3.0).int("a", 1).int("d", 4);
        assert_eq!(a.shared_with(&b).to_string(), "a=1 c=0x4008000000000000");
        assert_eq!(b.shared_with(&a).to_string(), "c=0x4008000000000000 a=1");
    }

    #[test]
    fn int_and_float_with_equal_bits_differ() {
        let bits = 1.0f64.to_bits();
        assert_ne!(
            Fingerprint::new().int("x", bits),
            Fingerprint::new().float("x", 1.0)
        );
    }
}
