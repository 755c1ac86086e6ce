//! Integer factors for schedule rounding (paper §3.3).
//!
//! Tile sizes carry divisibility constraints `N mod x = 0`. After gradient
//! descent in `y = ln x` space, Felix rounds `y` to the nearest `ln N_i`
//! where `N_i` ranges over the factors of `N`, rather than rounding `x` to
//! the nearest integer (`felix_tir::sketch::RoundingPlan` does the
//! rounding).

/// All positive factors of `n`, sorted ascending.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn factors(n: u64) -> Vec<u64> {
    assert!(n > 0, "factors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_of_12() {
        assert_eq!(factors(12), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn factors_of_prime() {
        assert_eq!(factors(13), vec![1, 13]);
    }

    #[test]
    fn factors_of_one() {
        assert_eq!(factors(1), vec![1]);
    }

    #[test]
    fn factors_of_square() {
        assert_eq!(factors(36), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
    }
}
