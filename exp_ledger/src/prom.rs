//! A reader for the Prometheus text that `mood-serve` renders on
//! `/metrics`: enough to take the `_sum`/`_count` pair of a summary or
//! histogram series, optionally selected by one label, and difference
//! two scrapes.

/// One sample line: metric name, labels in order, value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A parsed scrape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

/// The `_sum` and `_count` of one series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SumCount {
    pub sum: f64,
    pub count: f64,
}

impl SumCount {
    /// `self − before`: what happened between two scrapes.
    pub fn since(self, before: SumCount) -> SumCount {
        SumCount {
            sum: self.sum - before.sum,
            count: self.count - before.count,
        }
    }
}

impl Scrape {
    /// Parses exposition text; comment and blank lines are skipped.
    ///
    /// # Errors
    ///
    /// A line that is not `name[{labels}] value` is an error naming its
    /// 1-based line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut samples = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Self { samples })
    }

    /// The value of `name` whose labels include `label` (or, for
    /// `None`, the series without labels).
    pub fn value(&self, name: &str, label: Option<(&str, &str)>) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && match label {
                        Some((k, v)) => s.labels.iter().any(|(lk, lv)| lk == k && lv == v),
                        None => s.labels.is_empty(),
                    }
            })
            .map(|s| s.value)
    }

    /// `<base>_sum` and `<base>_count`; a missing series reads as zero
    /// (a stage that has not run yet is absent from the page).
    pub fn sum_count(&self, base: &str, label: Option<(&str, &str)>) -> SumCount {
        SumCount {
            sum: self.value(&format!("{base}_sum"), label).unwrap_or(0.0),
            count: self.value(&format!("{base}_count"), label).unwrap_or(0.0),
        }
    }
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("no value in `{line}`"))?;
    let value: f64 = value
        .parse()
        .map_err(|_| format!("bad value `{value}` in `{line}`"))?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels in `{line}`"))?;
            (name, parse_labels(body)?)
        }
        None => (series, Vec::new()),
    };
    if name.is_empty() {
        return Err(format!("empty metric name in `{line}`"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `k="v",k2="v2"` with `\\`, `\"` and `\n` escapes inside values.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            return Ok(labels);
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{key}` value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(c) => value.push(c),
                    None => return Err("dangling escape".to_string()),
                },
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value of label `{key}`")),
            }
        }
        labels.push((key.trim().to_string(), value));
        match chars.next() {
            Some(',') | None => {}
            Some(c) => return Err(format!("unexpected `{c}` after label value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# TYPE mood_serve_request_seconds histogram
mood_serve_request_seconds_bucket{le=\"0.0005\"} 1
mood_serve_request_seconds_sum 0.75
mood_serve_request_seconds_count 3
# TYPE mood_serve_queue_wait_seconds summary
mood_serve_queue_wait_seconds_sum 0.002
mood_serve_queue_wait_seconds_count 2
# TYPE mood_serve_stage_seconds histogram
mood_serve_stage_seconds_bucket{stage=\"engine\",le=\"+Inf\"} 3
mood_serve_stage_seconds_sum{stage=\"engine\"} 0.6
mood_serve_stage_seconds_count{stage=\"engine\"} 3
mood_serve_stage_seconds_sum{stage=\"parse\"} 0.03
mood_serve_stage_seconds_count{stage=\"parse\"} 3
mood_serve_stage_seconds_sum{stage=\"odd \\\"name\\\"\"} 1e-3
mood_serve_stage_seconds_count{stage=\"odd \\\"name\\\"\"} 1
";

    #[test]
    fn reads_sum_and_count_by_stage_label() {
        let scrape = Scrape::parse(PAGE).unwrap();
        let engine = scrape.sum_count("mood_serve_stage_seconds", Some(("stage", "engine")));
        assert_eq!(
            engine,
            SumCount {
                sum: 0.6,
                count: 3.0
            }
        );
        let parse = scrape.sum_count("mood_serve_stage_seconds", Some(("stage", "parse")));
        assert_eq!(parse.count, 3.0);
        let odd = scrape.sum_count("mood_serve_stage_seconds", Some(("stage", "odd \"name\"")));
        assert_eq!(
            odd,
            SumCount {
                sum: 1e-3,
                count: 1.0
            }
        );
        let request = scrape.sum_count("mood_serve_request_seconds", None);
        assert_eq!(
            request,
            SumCount {
                sum: 0.75,
                count: 3.0
            }
        );
        assert_eq!(
            scrape.value("mood_serve_request_seconds_bucket", Some(("le", "0.0005"))),
            Some(1.0)
        );
        // A stage the page does not carry yet reads as nothing observed.
        let absent = scrape.sum_count("mood_serve_stage_seconds", Some(("stage", "write")));
        assert_eq!(absent, SumCount::default());
    }

    #[test]
    fn differences_two_scrapes() {
        let before = Scrape::parse(PAGE).unwrap();
        let after = Scrape::parse(
            "mood_serve_queue_wait_seconds_sum 0.012\nmood_serve_queue_wait_seconds_count 7\n",
        )
        .unwrap();
        let delta = after
            .sum_count("mood_serve_queue_wait_seconds", None)
            .since(before.sum_count("mood_serve_queue_wait_seconds", None));
        assert!((delta.sum - 0.01).abs() < 1e-12);
        assert_eq!(delta.count, 5.0);
    }

    #[test]
    fn malformed_lines_name_their_position() {
        let err = Scrape::parse("ok 1\nbroken\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        assert!(Scrape::parse("m{stage=\"x} 1\n").is_err());
        assert!(Scrape::parse("m{stage=x} 1\n").is_err());
        assert!(Scrape::parse("m not-a-number\n").is_err());
    }
}
