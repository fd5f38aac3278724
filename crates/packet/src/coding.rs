//! Address-field size analytics (paper §5.2(d)).
//!
//! The serial baseline needs 1 bit per fanout level. The parallel networks
//! need a 2-bit [`RouteSymbol`](crate::RouteSymbol) per *non-speculative*
//! fanout node: speculative nodes always broadcast and carry no address
//! field, so every speculative level deletes `2 × 2^level` header bits.
//!
//! The paper's reported sizes, reproduced by the functions here:
//!
//! | network | 8×8 | 16×16 |
//! |---|---|---|
//! | baseline (serial)          | 3  | 4  |
//! | non-speculative            | 14 | 30 |
//! | hybrid                     | 12 | 20 |
//! | almost fully speculative   | 8  | 16 |

/// Address bits for a baseline unicast packet in an `n`-leaf tree: one turn
/// bit per level.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2.
///
/// # Examples
///
/// ```
/// use asynoc_packet::coding::baseline_address_bits;
///
/// assert_eq!(baseline_address_bits(8), 3);
/// assert_eq!(baseline_address_bits(16), 4);
/// ```
#[must_use]
pub fn baseline_address_bits(n: usize) -> usize {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "network size must be a power of two >= 2, got {n}"
    );
    n.trailing_zeros() as usize
}

/// Address bits for a parallel-multicast packet given how many fanout nodes
/// are non-speculative: 2 bits per non-speculative node.
///
/// # Examples
///
/// ```
/// use asynoc_packet::coding::parallel_address_bits;
///
/// assert_eq!(parallel_address_bits(7), 14); // 8×8, fully non-speculative
/// assert_eq!(parallel_address_bits(6), 12); // 8×8 hybrid (speculative root)
/// ```
#[must_use]
pub const fn parallel_address_bits(non_speculative_nodes: usize) -> usize {
    2 * non_speculative_nodes
}

/// Counts non-speculative fanout nodes in an `n`-leaf tree given per-level
/// speculative flags (`speculative_levels[l]` is `true` if every node at
/// level `l` is speculative).
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2, if the flag slice length does
/// not equal `log2(n)`, or if the leaf level is marked speculative — the
/// fanin network cannot throttle misrouted packets, so the paper requires
/// the last fanout level to stay non-speculative whenever speculation is
/// used at all.
///
/// # Examples
///
/// ```
/// use asynoc_packet::coding::non_speculative_node_count;
///
/// // 8×8 hybrid of Fig 3(b): speculative root, two non-speculative levels.
/// assert_eq!(non_speculative_node_count(8, &[true, false, false]), 6);
/// // 8×8 almost fully speculative (Fig 3(c)).
/// assert_eq!(non_speculative_node_count(8, &[true, true, false]), 4);
/// ```
#[must_use]
pub fn non_speculative_node_count(n: usize, speculative_levels: &[bool]) -> usize {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "network size must be a power of two >= 2, got {n}"
    );
    let levels = n.trailing_zeros() as usize;
    assert_eq!(
        speculative_levels.len(),
        levels,
        "expected {levels} per-level flags for an {n}-leaf tree"
    );
    let any_speculation = speculative_levels.iter().any(|&s| s);
    assert!(
        !(any_speculation && speculative_levels[levels - 1]),
        "the leaf fanout level cannot be speculative: the fanin network cannot throttle"
    );
    speculative_levels
        .iter()
        .enumerate()
        .filter(|&(_, &spec)| !spec)
        .map(|(level, _)| 1usize << level)
        .sum()
}

/// Total address bits for a parallel network described by per-level
/// speculative flags.
///
/// # Panics
///
/// Same conditions as [`non_speculative_node_count`].
#[must_use]
pub fn network_address_bits(n: usize, speculative_levels: &[bool]) -> usize {
    parallel_address_bits(non_speculative_node_count(n, speculative_levels))
}

/// Header coding efficiency: payload bits over payload-plus-address bits.
///
/// A smaller address field means more of each header flit carries payload —
/// the paper's motivation for simplified source routing.
///
/// # Panics
///
/// Panics if `payload_bits` is zero.
#[must_use]
pub fn coding_efficiency(payload_bits: usize, address_bits: usize) -> f64 {
    assert!(payload_bits > 0, "payload must be at least one bit");
    payload_bits as f64 / (payload_bits + address_bits) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::fanout_tree_nodes;

    const NONSPEC_8: [bool; 3] = [false, false, false];
    const NONSPEC_16: [bool; 4] = [false, false, false, false];

    #[test]
    fn nonspec_count_is_whole_tree_without_speculation() {
        assert_eq!(non_speculative_node_count(8, &NONSPEC_8), 7);
        assert_eq!(non_speculative_node_count(16, &NONSPEC_16), 15);
        assert_eq!(fanout_tree_nodes(8), 7);
    }

    #[test]
    #[should_panic(expected = "fanin network cannot throttle")]
    fn leaf_level_speculation_rejected() {
        let _ = non_speculative_node_count(8, &[false, false, true]);
    }

    #[test]
    #[should_panic(expected = "per-level flags")]
    fn flag_length_must_match_levels() {
        let _ = non_speculative_node_count(8, &[false, false]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn baseline_rejects_non_power_of_two() {
        let _ = baseline_address_bits(12);
    }

    #[test]
    fn coding_efficiency_improves_with_fewer_address_bits() {
        let payload = 32;
        let nonspec = coding_efficiency(payload, 14);
        let hybrid = coding_efficiency(payload, 12);
        let allspec = coding_efficiency(payload, 8);
        assert!(nonspec < hybrid && hybrid < allspec);
        assert!((coding_efficiency(32, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn coding_efficiency_rejects_zero_payload() {
        let _ = coding_efficiency(0, 4);
    }

    #[test]
    fn speculation_only_shrinks_headers() {
        for levels in 2u32..7 {
            for mask in 0u32..64 {
                let n = 1usize << levels;
                let mut flags: Vec<bool> = (0..levels).map(|l| mask >> l & 1 == 1).collect();
                // Leaf level must stay non-speculative.
                let last = flags.len() - 1;
                flags[last] = false;
                let bits = network_address_bits(n, &flags);
                let full = network_address_bits(n, &vec![false; levels as usize]);
                assert!(bits <= full);
                // Every speculative level removes exactly 2·2^level bits.
                let saved: usize = flags
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s)
                    .map(|(l, _)| 2 * (1usize << l))
                    .sum();
                assert_eq!(bits + saved, full);
            }
        }
    }
}
