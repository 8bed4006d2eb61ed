//! The CSV reader's fast path: one row in the canonical shape
//! `user,lat,lng,timestamp\n`, scanned in one pass with an exact
//! decimal → `f64` conversion.
//!
//! A row is accepted only when every field is a plain run the scanner
//! can convert exactly:
//!
//! * the user id is a digit run and the timestamp an optional `-` and
//!   a digit run, each with at most 18 significant digits, so neither
//!   can overflow;
//! * each coordinate is `-?d+(.d+)?` with at most 19 significant digits
//!   and at most 19 fraction digits, i.e. `w / 10^k` with `w < 10^19`
//!   and `k ≤ 19`;
//! * the line ends in `\n` or `\r\n`, and the point passes
//!   [`GeoPoint::new`].
//!
//! Everything else (spaces, `+` signs, exponents, `46.`, `.5`, longer
//! digit runs, non-ASCII bytes, the header and every malformed row) is
//! left to the general path in the parent module, which owns every
//! error. So an accepted row must be exactly what that path parses from
//! the same line, and the converter is exactly `str::parse::<f64>`:
//! both round `w / 10^k` correctly, ties to even.

use mood_geo::GeoPoint;

use crate::{Record, Timestamp, UserId};

/// Most significant digits, and most fraction digits, of a coordinate
/// the fast path converts.
const MAX_DECIMAL_DIGITS: usize = 19;

/// Most significant digits of a user id or timestamp; `10^18 − 1` fits
/// both `u64` and `i64`.
const MAX_INTEGER_DIGITS: usize = 18;

/// `10^k` for `k ≤ 19`; each is exact as a `u64` and as an `f64`
/// (`10^19 = 2^19 · 5^19` and `5^19 < 2^53`).
const POW10: [u64; MAX_DECIMAL_DIGITS + 1] = {
    let mut p = [1u64; MAX_DECIMAL_DIGITS + 1];
    let mut k = 1;
    while k < p.len() {
        p[k] = p[k - 1] * 10;
        k += 1;
    }
    p
};

/// Scans one canonical row at the start of `b`. Returns the row and the
/// length of its line, terminator included, or the index at which the
/// scan stopped: the first byte outside the shape, or `b.len()` when
/// the slice ends first. `b[..stop]` never holds a `\n`, so the line's
/// end is at or after `stop`.
pub(super) fn row(b: &[u8]) -> Result<(UserId, Record, usize), usize> {
    let mut i = 0;
    let user = integer(b, &mut i)?;
    comma(b, &mut i)?;
    let lat = decimal(b, &mut i)?;
    comma(b, &mut i)?;
    let lng = decimal(b, &mut i)?;
    comma(b, &mut i)?;
    let negative = b.get(i) == Some(&b'-');
    i += usize::from(negative);
    let ts = integer(b, &mut i)? as i64;
    let end = match (b.get(i), b.get(i + 1)) {
        (Some(b'\n'), _) => i + 1,
        (Some(b'\r'), Some(b'\n')) => i + 2,
        _ => return Err(i),
    };
    let point = GeoPoint::new(lat, lng).map_err(|_| i)?;
    let ts = if negative { -ts } else { ts };
    Ok((
        UserId::new(user),
        Record::new(point, Timestamp::from_unix(ts)),
        end,
    ))
}

fn comma(b: &[u8], i: &mut usize) -> Result<(), usize> {
    if b.get(*i) == Some(&b',') {
        *i += 1;
        Ok(())
    } else {
        Err(*i)
    }
}

/// Accumulates the digit run at `b[*i..]` into `w` and returns its
/// length. `sig` counts significant digits, those from the first
/// non-zero one on; the run stops with an error at the first digit past
/// `max` of them, so `w < 10^max` cannot overflow.
fn digit_run(
    b: &[u8],
    i: &mut usize,
    w: &mut u64,
    sig: &mut usize,
    max: usize,
) -> Result<usize, usize> {
    let start = *i;
    while let Some(d) = b.get(*i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        if *w != 0 || d != 0 {
            *sig += 1;
            if *sig > max {
                return Err(*i);
            }
        }
        *w = *w * 10 + u64::from(d);
        *i += 1;
    }
    Ok(*i - start)
}

/// Scans a run of digits at `b[*i..]`, at most [`MAX_INTEGER_DIGITS`]
/// of them significant.
fn integer(b: &[u8], i: &mut usize) -> Result<u64, usize> {
    let (mut w, mut sig) = (0, 0);
    match digit_run(b, i, &mut w, &mut sig, MAX_INTEGER_DIGITS)? {
        0 => Err(*i),
        _ => Ok(w),
    }
}

/// Scans a plain decimal `-?d+(.d+)?` at `b[*i..]` and converts it
/// exactly; see the module docs for the digit limits.
fn decimal(b: &[u8], i: &mut usize) -> Result<f64, usize> {
    let negative = b.get(*i) == Some(&b'-');
    *i += usize::from(negative);
    let (mut w, mut sig) = (0u64, 0usize);
    if digit_run(b, i, &mut w, &mut sig, MAX_DECIMAL_DIGITS)? == 0 {
        return Err(*i);
    }
    let mut k = 0;
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        k = digit_run(b, i, &mut w, &mut sig, MAX_DECIMAL_DIGITS)?;
        if k == 0 || k > MAX_DECIMAL_DIGITS {
            return Err(*i);
        }
    }
    let x = quotient(w, k);
    Ok(if negative { -x } else { x })
}

/// `w / 10^k` rounded once to the nearest `f64`, ties to even, for
/// `w < 2^64` and `k ≤ 19`.
fn quotient(w: u64, k: usize) -> f64 {
    if w < 1 << 53 {
        // Clinger's fast path: both operands are exact `f64`s, and IEEE
        // division rounds the exact quotient correctly.
        return w as f64 / POW10[k] as f64;
    }
    // q = ⌊w · 2^64 / 10^k⌋ has at least 54 bits (w ≥ 2^53 and
    // 10^k < 2^63.2), so rounding it to 53 bits, with the division's
    // remainder as the sticky bit, rounds the exact quotient.
    let divisor = u128::from(POW10[k]);
    let n = u128::from(w) << 64;
    let q = n / divisor;
    let inexact = q * divisor != n;
    let shift = 75 - q.leading_zeros(); // bit length of q, minus 53
    let mut m = (q >> shift) as u64;
    let rest = q & ((1 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rest > half || (rest == half && (inexact || m & 1 == 1)) {
        m += 1; // at most 2^53, still exact
    }
    // m · 2^(shift − 64): scaling by a normal power of two is exact.
    let scale = f64::from_bits(u64::from(1023 + shift - 64) << 52);
    m as f64 * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The converter on a whole string: `Some` exactly when it is one
    /// fast-shape decimal.
    fn convert(s: &str) -> Option<f64> {
        let mut i = 0;
        decimal(s.as_bytes(), &mut i).ok().filter(|_| i == s.len())
    }

    /// The fast shape, spelled out independently of the scanner.
    fn fast_shape(s: &str) -> bool {
        let body = s.strip_prefix('-').unwrap_or(s);
        let (int, frac) = match body.split_once('.') {
            Some((int, frac)) => (int, Some(frac)),
            None => (body, None),
        };
        let digits = |t: &str| !t.is_empty() && t.bytes().all(|c| c.is_ascii_digit());
        let frac_len = frac.map_or(0, str::len);
        let significant = format!("{int}{}", frac.unwrap_or(""))
            .trim_start_matches('0')
            .len();
        digits(int) && frac.is_none_or(digits) && frac_len <= 19 && significant <= 19
    }

    /// The converter takes every fast-shape string, rejects every other
    /// one, and agrees with `str::parse::<f64>` bit for bit.
    fn check(s: &str) {
        let expected = fast_shape(s).then(|| s.parse::<f64>().unwrap().to_bits());
        assert_eq!(convert(s).map(f64::to_bits), expected, "{s}");
    }

    /// `digits` (1–19 of them) with a point before position `point`
    /// (none when it is 0 or past the end) and a sign.
    fn decimal_text(digits: u64, len: usize, point: usize, negative: bool) -> String {
        let mut s = format!("{digits:0len$}");
        if (1..len).contains(&point) {
            s.insert(point, '.');
        } else if point == len {
            s.insert_str(0, "0.");
        }
        if negative {
            s.insert(0, '-');
        }
        s
    }

    #[test]
    fn round_half_even_ties_and_every_point_position() {
        // 2^53 ± small: 9007199254740993 lies halfway between 2^53 and
        // 2^53 + 2, and ...995 halfway between 2^53 + 4 and 2^53 + 6.
        for digits in [
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "9007199254740994",
            "9007199254740995",
            "9007199254740997",
            "18014398509481985",
            "9999999999999999999",
            "1000000000000000000",
            "1234567890123456789",
            "9223372036854775807",
            "9223372036854775808",
        ] {
            for point in 0..=digits.len() {
                let s = match point {
                    0 => digits.to_string(),
                    p if p == digits.len() => format!("0.{digits}"),
                    p => format!("{}.{}", &digits[..p], &digits[p..]),
                };
                check(&s);
                check(&format!("-{s}"));
            }
            // An exact tie at k > 0 goes through the u128 branch.
            for zeros in 1..=3 {
                check(&format!("{digits}.{}", "0".repeat(zeros)));
            }
            check(&format!("{digits}.001"));
        }
    }

    #[test]
    fn edge_cases_match_std() {
        for s in [
            "0",
            "-0",
            "0.0",
            "-0.0",
            "00",
            "000.000",
            "0.0000000000000000001",
            "0.1000000000000000000",
            "1.000000000000000000",
            "46.204391",
            "-180",
            "180.0",
            "90.00000000000000001",
            "0.30000000000000004",
            "9007199254740993.0000",
            "0.9999999999999999999",
            // Outside the shape: the general path parses these.
            "",
            "-",
            ".5",
            "46.",
            "+46.2",
            "4.62e1",
            "1.0000000000000000000",
            "0.00000000000000000001",
            "12345678901234567890",
            "99999999999999999999.5",
            "1-2",
            "1.2.3",
            "NaN",
            "inf",
        ] {
            check(s);
        }
    }

    #[test]
    fn pow10_is_exact_in_f64() {
        for (k, &p) in POW10.iter().enumerate() {
            assert_eq!(p as f64 as u64, p, "10^{k}");
            assert_eq!(p, 10u64.pow(k as u32));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_decimals_match_std(
            draws in collection::vec((0u64..u64::MAX, 1usize..20, 0usize..21, 0u32..2), 512..513),
        ) {
            for (raw, len, point, sign) in draws {
                let digits = raw % POW10[len.min(MAX_DECIMAL_DIGITS)];
                check(&decimal_text(digits, len, point.min(len + 1), sign == 1));
            }
        }

        #[test]
        fn shortest_prints_match_std(
            draws in collection::vec((0u64..u64::MAX, -200.0f64..200.0, 0u32..4), 512..513),
        ) {
            for (bits, value, scale) in draws {
                let from_bits = f64::from_bits(bits);
                if from_bits.is_finite() {
                    check(&format!("{from_bits}"));
                }
                // Coordinates as the ledger's CSVs print them, and at
                // fewer decimals as real exports do.
                let value = value * [1.0, 1e-3, 1e3, 1e9][scale as usize];
                check(&format!("{value}"));
                check(&format!("{value:.6}"));
            }
        }
    }
}
