//! Prometheus text exposition format: a writer for the stats surface
//! and a small parser used to validate the emitted page.
//!
//! The emitted page follows the text format v0.0.4: `# TYPE` headers,
//! one `name{labels} value` sample per line. Histogram phases are
//! exposed as Prometheus *summaries* (pre-computed quantiles plus
//! `_sum`/`_count`) rather than `_bucket` series — the log-linear
//! histograms have ~1900 buckets and a 6-phase bucket dump would swamp
//! any scrape.

/// Incrementally builds an exposition page.
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits a `# TYPE` header (`counter`, `gauge`, `summary`).
    pub fn type_header(&mut self, name: &str, kind: &str) -> &mut Self {
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// Emits a `# HELP` header. Newlines and backslashes in the
    /// docstring are escaped per the text format.
    pub fn help_header(&mut self, name: &str, help: &str) -> &mut Self {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('\n');
        self
    }

    /// Opens a metric family: `# HELP` then `# TYPE`, the pairing
    /// [`check_exposition`] requires.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        self.help_header(name, help).type_header(name, kind)
    }

    /// Emits one sample; `labels` are `(key, value)` pairs.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                // Label values escape backslash, quote, newline.
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        if value.fract() == 0.0 && value.abs() < 1e18 {
            self.out.push_str(&format!("{}", value as i64));
        } else {
            self.out.push_str(&format!("{value}"));
        }
        self.out.push('\n');
        self
    }

    /// An unlabeled integer sample, printed digit for digit: through
    /// [`PromWriter::sample`]'s `f64` a request id or counter above
    /// 2^53 would come out rounded.
    pub fn scalar(&mut self, name: &str, value: u64) -> &mut Self {
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
        self
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label `(key, value)` pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses an exposition page into its samples, validating the line
/// grammar. Comment (`#`) and blank lines are skipped.
///
/// # Errors
/// The first malformed line, with its 1-based line number.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples
            .push(parse_sample(line).map_err(|e| format!("line {}: {e}: `{line}`", lineno + 1))?);
    }
    Ok(samples)
}

// Sequential scan, not chained `replace`: `\\n` (escaped backslash
// followed by `n`) must decode to `\n`-the-two-characters, which a
// `replace("\\n", ..)` pass would corrupt.
fn unescape_label(v: &str) -> Result<String, String> {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            _ => return Err("bad label escape".into()),
        }
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let (head, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err("missing value".into()),
    };
    let value: f64 = value.parse().map_err(|_| "bad value".to_string())?;
    let (name, labels) = match head.find('{') {
        None => (head.to_string(), Vec::new()),
        Some(open) => {
            if !head.ends_with('}') {
                return Err("unterminated label set".into());
            }
            let name = head[..open].to_string();
            let body = &head[open + 1..head.len() - 1];
            let mut labels = Vec::new();
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').ok_or("label missing `=`")?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or("label value not quoted")?;
                    labels.push((k.to_string(), unescape_label(v)?));
                }
            }
            (name, labels)
        }
    };
    if name.is_empty()
        || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err("bad metric name".into());
    }
    Ok(PromSample { name, labels, value })
}

/// Validates a whole exposition page beyond the per-line grammar of
/// [`parse_prometheus`]: metric-name charset on header lines, `# HELP`
/// present and paired immediately before each `# TYPE`, no duplicate
/// headers, every sample covered by a `# TYPE` family (directly or via
/// a summary/histogram `_sum`/`_count`/`_bucket` suffix), and no
/// duplicate series (same name and label set twice).
///
/// Returns the number of samples on the page.
///
/// # Errors
/// The first violation, with its 1-based line number.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut last_help: Option<String> = None;
    let mut series: Vec<String> = Vec::new();
    let mut n_samples = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) =
                rest.split_once(' ').ok_or(format!("line {lineno}: HELP without docstring"))?;
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name `{name}` in HELP"));
            }
            if help.trim().is_empty() {
                return Err(format!("line {lineno}: empty HELP docstring for `{name}`"));
            }
            if helped.iter().any(|h| h == name) {
                return Err(format!("line {lineno}: duplicate HELP for `{name}`"));
            }
            helped.push(name.to_string());
            last_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) =
                rest.split_once(' ').ok_or(format!("line {lineno}: TYPE without kind"))?;
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name `{name}` in TYPE"));
            }
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                return Err(format!("line {lineno}: unknown metric kind `{kind}`"));
            }
            if typed.iter().any(|(n, _)| n == name) {
                return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
            }
            if last_help.as_deref() != Some(name) {
                return Err(format!("line {lineno}: TYPE for `{name}` not preceded by its HELP"));
            }
            typed.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let sample = parse_sample(line).map_err(|e| format!("line {lineno}: {e}: `{line}`"))?;
        let family_kind = typed
            .iter()
            .find(|(n, _)| *n == sample.name)
            .or_else(|| {
                // Summary/histogram child series attach to the base
                // family's TYPE header.
                ["_sum", "_count", "_bucket"].iter().find_map(|suffix| {
                    let base = sample.name.strip_suffix(suffix)?;
                    typed
                        .iter()
                        .find(|(n, k)| n == base && matches!(k.as_str(), "summary" | "histogram"))
                })
            })
            .map(|(_, k)| k.as_str());
        if family_kind.is_none() {
            return Err(format!("line {lineno}: sample `{}` has no TYPE header", sample.name));
        }
        let mut labels = sample.labels.clone();
        labels.sort();
        let key = format!("{}{:?}", sample.name, labels);
        if series.contains(&key) {
            return Err(format!("line {lineno}: duplicate series `{line}`"));
        }
        series.push(key);
        n_samples += 1;
    }
    Ok(n_samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_back() {
        let mut w = PromWriter::new();
        w.type_header("algas_queries_total", "counter")
            .scalar("algas_queries_total", 42)
            .type_header("algas_phase_ns", "summary")
            .sample("algas_phase_ns", &[("phase", "e2e"), ("quantile", "0.99")], 1234.0)
            .sample("algas_phase_ns_sum", &[("phase", "e2e")], 5678.0);
        let page = w.finish();
        let samples = parse_prometheus(&page).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples[0],
            PromSample { name: "algas_queries_total".into(), labels: vec![], value: 42.0 }
        );
        assert_eq!(samples[1].label("phase"), Some("e2e"));
        assert_eq!(samples[1].label("quantile"), Some("0.99"));
        assert_eq!(samples[2].value, 5678.0);
    }

    #[test]
    fn scalars_print_every_digit() {
        let mut w = PromWriter::new();
        w.scalar("id", (1 << 53) + 1).scalar("max", u64::MAX).scalar("zero", 0);
        assert_eq!(w.finish(), "id 9007199254740993\nmax 18446744073709551615\nzero 0\n");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["noval", "1bad_name 3", "x{a=b} 1", "x{a=\"b\"", "x notanumber"] {
            assert!(parse_prometheus(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escapes_label_values() {
        let mut w = PromWriter::new();
        w.sample("m", &[("k", "a\"b\\c\nd")], 1.0);
        let samples = parse_prometheus(&w.finish()).unwrap();
        assert_eq!(samples[0].label("k"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn check_exposition_accepts_a_well_formed_page() {
        let mut w = PromWriter::new();
        w.family("algas_q_total", "counter", "Queries.")
            .scalar("algas_q_total", 3)
            .family("algas_lat_ns", "summary", "Latency summary.")
            .sample("algas_lat_ns", &[("quantile", "0.5")], 10.0)
            .sample("algas_lat_ns", &[("quantile", "0.99")], 90.0)
            .sample("algas_lat_ns_sum", &[], 100.0)
            .sample("algas_lat_ns_count", &[], 3.0);
        assert_eq!(check_exposition(&w.finish()).unwrap(), 5);
    }

    #[test]
    fn check_exposition_rejects_violations() {
        // TYPE without HELP.
        let no_help = "# TYPE x counter\nx 1\n";
        assert!(check_exposition(no_help).unwrap_err().contains("not preceded by its HELP"));
        // Sample without any TYPE.
        assert!(check_exposition("x 1\n").unwrap_err().contains("no TYPE header"));
        // Duplicate series.
        let dup = "# HELP x d\n# TYPE x counter\nx 1\nx 2\n";
        assert!(check_exposition(dup).unwrap_err().contains("duplicate series"));
        // Duplicate TYPE.
        let dup_type = "# HELP x d\n# TYPE x counter\n# HELP x d\n";
        assert!(check_exposition(dup_type).unwrap_err().contains("duplicate HELP"));
        // Bad name in a header.
        assert!(check_exposition("# HELP 1bad d\n").unwrap_err().contains("bad metric name"));
        // Unknown kind.
        assert!(check_exposition("# HELP x d\n# TYPE x enum\n").unwrap_err().contains("unknown"));
        // Same name, different labels: fine.
        let ok = "# HELP x d\n# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"2\"} 2\n";
        assert_eq!(check_exposition(ok).unwrap(), 2);
    }
}
