//! One way to run and report a sweep.
//!
//! Every figure of the paper's evaluation and every `examples/*_sweep.rs`
//! is a **declaration** in [`crate::experiments::SWEEPS`]: a function that
//! walks its axis values, evaluates a [`Point`] per [`Scenario`] and pushes
//! rows of named, typed [`Cell`]s into its [`Sweep`].  Around it, this
//! module owns the shared flags ([`parse`]: `--quick` / `--paper`, `--json`,
//! `--check-model <tol>`, `--out DIR`; anything else is a usage error), the
//! model gate ([`Sweep::row`] records every simulated-vs-predicted cell a
//! row carries, so what is printed is what is gated), the one emitter
//! ([`Sweep::write`]: aligned text, JSON lines or CSV to any [`Write`]) and
//! the exit code ([`run`], [`main`]: 1 when a gated row drifts or when
//! `--check-model` gated no in-domain row at all, 2 on a usage error).
//!
//! A column appears in JSON (and CSV) under its `key` and in the text
//! table under its `label`; an empty key or label hides it there, which is
//! how a row carries `n` for machines and `ℓ/n` for people.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use crate::experiments::{Profile, FIGURES, SWEEPS};
use crate::prediction::{predict, DriftGate, ModelPrediction};
use crate::runner::{AggregateOutcome, Protocol, TrialOutcome};
use crate::scenario::Scenario;

/// One typed value of a sweep row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A measurement: value, decimals in JSON, decimals in the text table.
    Float(f64, usize, usize),
    /// An axis value: as typed in JSON (`0.05`), given decimals in text.
    Axis(f64, usize),
    /// A label.
    Text(String),
    /// A histogram or other list of counts (JSON only).
    List(Vec<u64>),
    /// Simulated vs. predicted reliability of one provider: `sim/pred` in
    /// text; `key`, `key_predicted`, `key_in_domain` in JSON.
    Pair(f64, ModelPrediction),
    /// The prediction, beside the simulated value it is gated against (shown
    /// in its own column): `pred` in text; `predicted`, `predicted_rounds`,
    /// `model_in_domain` in JSON.
    Predicted(f64, ModelPrediction),
    /// A nested JSON object (JSON only).
    Record(Vec<Column>),
}

impl Cell {
    /// The cell as one or more `"key":value` JSON fields.
    fn json(&self, key: &str) -> String {
        match self {
            Cell::Int(value) => format!("\"{key}\":{value}"),
            Cell::Float(value, decimals, _) => format!("\"{key}\":{value:.decimals$}"),
            Cell::Axis(value, _) => format!("\"{key}\":{value}"),
            Cell::Text(text) => format!("\"{key}\":\"{text}\""),
            Cell::List(values) => {
                let values: Vec<String> = values.iter().map(u64::to_string).collect();
                format!("\"{key}\":[{}]", values.join(","))
            }
            Cell::Pair(simulated, prediction) => format!(
                "\"{key}\":{simulated:.4},\"{key}_predicted\":{:.4},\"{key}_in_domain\":{}",
                prediction.reliability, prediction.in_domain
            ),
            Cell::Predicted(_, prediction) => format!(
                "\"predicted\":{:.6},\"predicted_rounds\":{},\"model_in_domain\":{}",
                prediction.reliability, prediction.rounds, prediction.in_domain
            ),
            Cell::Record(columns) => format!("\"{key}\":{}", json_object(columns)),
        }
    }

    /// The cell as it reads in the text table; a prediction outside the
    /// model's domain reads `-`.
    fn text(&self) -> String {
        let predicted = |prediction: &ModelPrediction| match prediction.in_domain {
            true => format!("{:.3}", prediction.reliability),
            false => "-".to_string(),
        };
        match self {
            Cell::Int(value) => value.to_string(),
            Cell::Float(value, _, decimals) | Cell::Axis(value, decimals) => {
                format!("{value:.decimals$}")
            }
            Cell::Text(text) => text.clone(),
            Cell::Pair(simulated, prediction) => {
                format!("{simulated:.3}/{}", predicted(prediction))
            }
            Cell::Predicted(_, prediction) => predicted(prediction),
            Cell::List(_) | Cell::Record(_) => String::new(),
        }
    }

    /// The cell as a CSV scalar: numbers with six decimals, a pair as its
    /// simulated value; predictions, lists and records have no column.
    fn csv(&self) -> Option<String> {
        match self {
            Cell::Text(text) => Some(text.clone()),
            Cell::List(_) | Cell::Predicted(..) | Cell::Record(_) => None,
            _ => Some(format!("{:.6}", self.value())),
        }
    }

    /// The cell's number (the simulated value of a pair or prediction);
    /// panics on a text, list or record cell.
    pub fn value(&self) -> f64 {
        match self {
            Cell::Int(value) => *value as f64,
            Cell::Float(value, ..) | Cell::Axis(value, _) => *value,
            Cell::Pair(value, _) | Cell::Predicted(value, _) => *value,
            other => panic!("{other:?} is not a number"),
        }
    }
}

/// A named cell: `key` in JSON and CSV, `label` in the text header.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Field name in JSON and CSV; empty hides the column there.
    pub key: String,
    /// Header in the text table; empty hides the column there.
    pub label: String,
    /// The value.
    pub cell: Cell,
}

/// Shorthand for a [`Column`].
pub fn col(key: &str, label: &str, cell: Cell) -> Column {
    Column { key: key.to_string(), label: label.to_string(), cell }
}

/// A key or label as a heading; an empty one hides its column.
fn shown(name: &str) -> Option<String> {
    (!name.is_empty()).then(|| name.to_string())
}

fn json_object(columns: &[Column]) -> String {
    let keyed = columns.iter().filter(|column| !column.key.is_empty());
    let fields: Vec<String> = keyed.map(|column| column.cell.json(&column.key)).collect();
    format!("{{{}}}", fields.join(","))
}

/// Output format of [`Sweep::write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Title, right-aligned columns, footer.
    Text,
    /// One JSON object per row (one object in all for an enveloped sweep).
    Json,
    /// Header line and one comma-separated line per row.
    Csv,
}

/// One evaluated sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// What the analytical model predicts for the scenario.
    pub prediction: ModelPrediction,
    /// The trials, aggregated.
    pub outcome: AggregateOutcome,
    /// The raw trials (latency histograms, per-event reports).
    pub trials: Vec<TrialOutcome>,
}

impl Point {
    /// Runs all trials of the scenario on all available cores.
    pub fn run(scenario: &Scenario, protocol: Protocol) -> Self {
        Self::of(scenario, scenario.run_parallel(protocol))
    }

    /// Predicts and aggregates trials the caller ran (and timed) itself.
    pub fn of(scenario: &Scenario, trials: Vec<TrialOutcome>) -> Self {
        let outcome = AggregateOutcome::from_trials(&trials);
        Self { prediction: predict(scenario), outcome, trials }
    }

    /// The delivery ratio against the prediction (meaningful for pmcast,
    /// the protocol the model predicts) as a [`Cell::Pair`].
    pub fn pair(&self) -> Cell {
        Cell::Pair(self.outcome.delivery_mean, self.prediction)
    }

    /// The same comparison as a [`Cell::Predicted`].
    pub fn predicted(&self) -> Cell {
        Cell::Predicted(self.outcome.delivery_mean, self.prediction)
    }
}

/// What a declaration fills: a table and the prose around it, under a
/// name and a profile, watched by the gate under `--check-model`.
#[derive(Debug)]
pub struct Sweep {
    /// The sweep's [`Decl::file`]; prefixes its gate labels.
    pub name: &'static str,
    /// Quick or paper scale.
    pub profile: Profile,
    /// Printed above the text table.
    pub title: String,
    /// Sweep-level fields: when non-empty, JSON output is the single
    /// object `{envelope…,"rows":[…]}`, not one line per row.
    pub envelope: Vec<Column>,
    /// The rows so far; every row carries the same columns.
    pub rows: Vec<Vec<Column>>,
    /// Printed below the text table.
    pub footer: String,
    gate: Option<DriftGate>,
}

impl Sweep {
    /// An empty sweep, gated when a `--check-model` tolerance is given.
    pub fn new(name: &'static str, profile: Profile, tolerance: Option<f64>) -> Self {
        let (title, footer, gate) = (String::new(), String::new(), tolerance.map(DriftGate::new));
        Self { name, profile, title, envelope: Vec::new(), rows: Vec::new(), footer, gate }
    }

    /// Appends a row; under `--check-model`, records each keyed
    /// [`Cell::Pair`] / [`Cell::Predicted`] it carries into the gate as
    /// `"<sweep> <the row's text and axis cells> <key>"`.
    pub fn row(&mut self, row: Vec<Column>) {
        if let Some(gate) = self.gate.as_mut() {
            let is_label = |c: &&Column| matches!(c.cell, Cell::Text(_) | Cell::Axis(..));
            let labels: Vec<String> = row.iter().filter(is_label).map(|c| c.cell.text()).collect();
            for column in row.iter().filter(|column| !column.key.is_empty()) {
                if let Cell::Pair(simulated, model) | Cell::Predicted(simulated, model) =
                    &column.cell
                {
                    let label = format!("{} {} {}", self.name, labels.join(" "), column.key);
                    gate.record(&label, model, *simulated);
                }
            }
        }
        self.rows.push(row);
    }

    /// The cell of `row` named `key`; panics when either does not exist.
    #[cfg(test)]
    pub(crate) fn cell(&self, row: usize, key: &str) -> &Cell {
        let column = self.rows[row].iter().find(|column| column.key == key);
        &column.unwrap_or_else(|| panic!("no column `{key}`")).cell
    }

    /// The header line and one line per row of the columns `pick` keeps,
    /// each as `(heading, value)`.
    fn grid(&self, pick: impl Fn(&Column) -> Option<(String, String)>) -> Vec<Vec<String>> {
        let mut lines = Vec::new();
        for row in &self.rows {
            let (headings, values) = row.iter().filter_map(&pick).unzip();
            if lines.is_empty() {
                lines.push(headings);
            }
            lines.push(values);
        }
        lines
    }

    /// Writes the table in the given format, propagating the writer's I/O
    /// errors.
    pub fn write(&self, out: &mut impl Write, format: Format) -> io::Result<()> {
        match format {
            Format::Json if self.envelope.is_empty() => {
                for row in &self.rows {
                    writeln!(out, "{}", json_object(row))?;
                }
            }
            Format::Json => {
                let envelope = json_object(&self.envelope);
                let rows: Vec<String> = self.rows.iter().map(|row| json_object(row)).collect();
                let fields = &envelope[..envelope.len() - 1];
                writeln!(out, "{fields},\"rows\":[{}]}}", rows.join(","))?;
            }
            Format::Csv => {
                for line in self.grid(|c| Some((shown(&c.key)?, c.cell.csv()?))) {
                    writeln!(out, "{}", line.join(","))?;
                }
            }
            Format::Text => {
                let lines = self.grid(|c| Some((shown(&c.label)?, c.cell.text())));
                let width = |i: usize| lines.iter().map(|line| line[i].chars().count()).max();
                let columns = lines.first().map_or(0, Vec::len);
                let widths: Vec<usize> = (0..columns).map(|i| width(i).unwrap_or(0)).collect();
                if !self.title.is_empty() {
                    writeln!(out, "{}", self.title)?;
                }
                for line in &lines {
                    let padded = line.iter().zip(&widths).map(|(cell, w)| format!("{cell:>w$}"));
                    writeln!(out, "{}", padded.collect::<Vec<_>>().join("  "))?;
                }
                if !self.footer.is_empty() {
                    writeln!(out, "\n{}", self.footer)?;
                }
            }
        }
        Ok(())
    }
}

/// A registered sweep: see [`crate::experiments::SWEEPS`].
#[derive(Debug)]
pub struct Decl {
    /// Every name that selects it: its `figures` and/or its example's name.
    pub names: &'static [&'static str],
    /// File stem of its CSV under `--out`, and its name in gate messages.
    pub file: &'static str,
    /// Whether its rows carry a model prediction (`--check-model` applies).
    pub model: bool,
    /// The declaration: axis values → scenarios → rows.
    pub run: fn(&mut Sweep),
}

impl Decl {
    /// A registration: names, CSV file stem, model column, declaration.
    pub const fn new(
        names: &'static [&'static str],
        file: &'static str,
        model: bool,
        run: fn(&mut Sweep),
    ) -> Self {
        Self { names, file, model, run }
    }
}

/// The parsed command line.
#[derive(Debug)]
pub struct Options {
    /// The selected sweeps.
    pub sweeps: Vec<&'static Decl>,
    /// `--quick` (the default) or `--paper`.
    pub profile: Profile,
    /// The text table, or JSON lines under `--json`.
    pub format: Format,
    /// `--check-model <tolerance>`.
    pub check_model: Option<f64>,
    /// `--out DIR`: also write each table as `DIR/<file>.csv`.
    pub out: Option<PathBuf>,
}

/// Parses the shared flags.  An example passes its own name and takes no
/// positional argument; the `figures` binary passes `None`, takes figure
/// names (default `all`) and defaults `--out` to `target/figures`.
///
/// # Errors
///
/// The message to exit 2 with: an unknown flag or sweep, a bad tolerance or
/// directory, or `--check-model` on a sweep without a model column.
pub fn parse(args: &[String], example: Option<&str>) -> Result<Options, String> {
    let figures = format!("figures [{} | all]...", FIGURES.join(" | "));
    let usage = format!(
        "usage: {} [--quick | --paper] [--json] [--check-model TOLERANCE] [--out DIR]",
        example.unwrap_or(&figures)
    );
    let (mut sweeps, mut profile, mut format) = (Vec::new(), Profile::Quick, Format::Text);
    let (mut check_model, mut out) = (None, None);
    let mut names: Vec<&str> = example.into_iter().collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => profile = Profile::Quick,
            "--paper" => profile = Profile::Paper,
            "--json" => format = Format::Json,
            "--check-model" => {
                let tolerance = iter.next().and_then(|raw| raw.parse::<f64>().ok());
                // `"inf"` parses as an `f64`, and an infinite tolerance
                // would pass every row: a gate has to be able to fail.
                let gating = tolerance.filter(|t| t.is_finite() && *t > 0.0);
                check_model = Some(gating.ok_or_else(|| {
                    format!("--check-model requires a positive tolerance, e.g. 0.05\n{usage}")
                })?);
            }
            "--out" => {
                let directory =
                    iter.next().ok_or(format!("--out requires a directory\n{usage}"))?;
                out = Some(PathBuf::from(directory));
            }
            "all" if example.is_none() => names.extend(FIGURES),
            name if example.is_none() && !name.starts_with('-') => names.push(name),
            unknown => return Err(format!("unknown argument {unknown:?}\n{usage}")),
        }
    }
    if example.is_none() {
        out.get_or_insert_with(|| PathBuf::from("target").join("figures"));
        if names.is_empty() {
            names.extend(FIGURES);
        }
    }
    for name in names {
        let sweep = SWEEPS.iter().find(|decl| decl.names.contains(&name));
        let sweep = sweep.ok_or_else(|| format!("unknown sweep {name:?}\n{usage}"))?;
        if check_model.is_some() && !sweep.model {
            return Err(format!("{name} has no model column to --check-model against\n{usage}"));
        }
        sweeps.push(sweep);
    }
    Ok(Options { sweeps, profile, format, check_model, out })
}

/// Runs the selected sweeps — tables to `out` (and CSV files under `--out`),
/// gate summaries and verdicts to `err` — and returns whether every gate
/// passed; I/O errors of the writers and the CSV files propagate.
pub fn run(options: &Options, out: &mut impl Write, err: &mut impl Write) -> io::Result<bool> {
    let mut passed = true;
    for (index, decl) in options.sweeps.iter().enumerate() {
        let mut sweep = Sweep::new(decl.file, options.profile, options.check_model);
        (decl.run)(&mut sweep);
        if index > 0 && options.format == Format::Text {
            writeln!(out)?;
        }
        sweep.write(out, options.format)?;
        if let Some(directory) = &options.out {
            std::fs::create_dir_all(directory)?;
            let path = directory.join(format!("{}.csv", decl.file));
            sweep.write(&mut std::fs::File::create(&path)?, Format::Csv)?;
            writeln!(err, "wrote {}", path.display())?;
        }
        if let Some(gate) = &sweep.gate {
            writeln!(err, "{}", gate.summary())?;
            if let Err(drift) = gate.verdict() {
                writeln!(err, "{}: {drift}", decl.file)?;
                passed = false;
            }
        }
    }
    Ok(passed)
}

/// The whole entry point of an example (`Some(its name)`) or of the
/// `figures` binary (`None`): exit code 2 on a usage error, 1 on a failed
/// gate or an I/O error.
pub fn main(example: Option<&str>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |options| run(&options, &mut io::stdout().lock(), &mut io::stderr());
    let failure = match parse(&args, example).map(run) {
        Ok(Ok(passed)) => return if passed { ExitCode::SUCCESS } else { ExitCode::from(1) },
        Ok(Err(error)) => (1, error.to_string()),
        Err(usage) => (2, usage),
    };
    eprintln!("{}", failure.1);
    ExitCode::from(failure.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str, example: Option<&str>) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args, example)
    }

    #[test]
    fn parser_accepts_the_shared_flags_everywhere() {
        let churn = Some("churn_sweep");
        let options = parsed("--paper --check-model 0.05 --json --out x", churn).unwrap();
        assert_eq!((options.profile, options.format), (Profile::Paper, Format::Json));
        assert_eq!((options.check_model, options.out), (Some(0.05), Some(PathBuf::from("x"))));
        assert_eq!(options.sweeps[0].file, "churn_sweep");
        // `--quick` is a real flag (the CI lines pass it), not an ignored
        // one; without `--out` an example writes no CSV.
        let quick = parsed("--quick", Some("adversarial_sweep")).unwrap();
        assert_eq!((quick.profile, quick.format, quick.out), (Profile::Quick, Format::Text, None));
        // `figures`: no name means all seven, written under target/figures;
        // fig4 is gateable and is `reliability_sweep`'s declaration.
        let names =
            |options: &Options| options.sweeps.iter().map(|s| s.names[0]).collect::<Vec<_>>();
        let all = parsed("", None).unwrap();
        assert_eq!(names(&all), FIGURES);
        assert_eq!(all.out, Some(PathBuf::from("target/figures")));
        assert_eq!(names(&parsed("all --quick", None).unwrap()), FIGURES);
        let fig4 = parsed("fig4 --check-model 0.08", None).unwrap();
        let example = parsed("", Some("reliability_sweep")).unwrap();
        assert_eq!(names(&fig4), ["fig4"]);
        assert!(std::ptr::eq(fig4.sweeps[0], example.sweeps[0]));
    }

    #[test]
    fn parser_rejects_everything_else_with_a_usage_line() {
        let churn = Some("churn_sweep");
        let rejected = |line: &str, example: Option<&str>, complaint: &str| {
            let message = parsed(line, example).unwrap_err();
            assert!(message.contains(complaint), "{line:?}: {message}");
            assert!(message.contains("\nusage: "), "{line:?}: {message}");
        };
        rejected("--papr", churn, "unknown argument \"--papr\"");
        // The bare `paper` spelling `reliability_sweep` once took.
        rejected("paper", Some("reliability_sweep"), "unknown argument \"paper\"");
        rejected("--check-model", churn, "positive tolerance");
        rejected("--check-model 0", churn, "positive tolerance");
        rejected("--check-model -0.05", churn, "positive tolerance");
        rejected("--check-model inf", churn, "positive tolerance");
        rejected("--check-model infinity", churn, "positive tolerance");
        rejected("--check-model NaN", churn, "positive tolerance");
        rejected("--out", churn, "--out requires a directory");
        rejected("fig9", None, "unknown sweep \"fig9\"");
        // A sweep that declares no model column cannot be gated.
        rejected("--check-model 0.08", Some("topic_sweep"), "topic_sweep has no model column");
        rejected("fig5 --check-model 0.08", None, "fig5 has no model column");
    }

    fn sample() -> Sweep {
        let inside = ModelPrediction {
            reliability: 0.987654321,
            rounds: 16,
            view_entries: 42,
            in_domain: true,
            tolerance_scale: 1.0,
        };
        let outside = ModelPrediction { in_domain: false, ..inside };
        let mut table = Sweep::new("sample", Profile::Quick, None);
        table.title = "Sample".to_string();
        table.rows.push(vec![
            col("label", "who", Cell::Text("flat ℓ=8".to_string())),
            col("n", "", Cell::Int(216)),
            col("", "ℓ/n", Cell::Float(0.03704, 3, 3)),
            col("rate", "rate", Cell::Axis(0.05, 2)),
            col("delivery", "delivered", Cell::Float(0.98, 4, 3)),
            col("global", "global", Cell::Pair(0.97531, inside)),
            col("flat", "flat", Cell::Pair(0.5, outside)),
            col("latency", "", Cell::List(vec![3, 0, 7])),
            col("predicted", "predicted", Cell::Predicted(0.98, inside)),
        ]);
        table.footer = "(legend)".to_string();
        table
    }

    fn rendered(table: &Sweep, format: Format) -> String {
        let mut out = Vec::new();
        table.write(&mut out, format).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn one_table_renders_as_text_json_and_csv() {
        let table = sample();
        assert_eq!(
            rendered(&table, Format::Json),
            "{\"label\":\"flat ℓ=8\",\"n\":216,\"rate\":0.05,\"delivery\":0.9800,\
             \"global\":0.9753,\"global_predicted\":0.9877,\"global_in_domain\":true,\
             \"flat\":0.5000,\"flat_predicted\":0.9877,\"flat_in_domain\":false,\
             \"latency\":[3,0,7],\
             \"predicted\":0.987654,\"predicted_rounds\":16,\"model_in_domain\":true}\n"
        );
        // Text: labelled columns only, right-aligned to the widest cell,
        // the text-side decimals, '-' for an out-of-domain prediction.
        assert_eq!(
            rendered(&table, Format::Text),
            "Sample\n\
             \x20    who    ℓ/n  rate  delivered       global     flat  predicted\n\
             flat ℓ=8  0.037  0.05      0.980  0.975/0.988  0.500/-      0.988\n\
             \n(legend)\n"
        );
        // CSV: keyed scalar columns, six decimals, a pair as its simulated
        // value; the prediction and the list have no column.
        assert_eq!(
            rendered(&table, Format::Csv),
            "label,n,rate,delivery,global,flat\n\
             flat ℓ=8,216.000000,0.050000,0.980000,0.975310,0.500000\n"
        );
        assert_eq!(table.cell(0, "global").value(), 0.97531);
        // With an envelope, JSON is one object around the rows.
        let mut table = Sweep::new("sample", Profile::Quick, None);
        assert_eq!(rendered(&table, Format::Text), "");
        table.rows = vec![sample().rows[0][..2].to_vec(); 2];
        let stats = Cell::Record(vec![col("hit_rate", "", Cell::Float(0.96, 4, 4))]);
        table.envelope = vec![col("events", "", Cell::Int(300)), col("hashcons", "", stats)];
        let row = "{\"label\":\"flat ℓ=8\",\"n\":216}";
        let object = "{\"events\":300,\"hashcons\":{\"hit_rate\":0.9600},\"rows\":";
        assert_eq!(rendered(&table, Format::Json), format!("{object}[{row},{row}]}}\n"));
    }

    /// A sweep whose only point lies outside the model's domain.
    fn ungateable(sweep: &mut Sweep) {
        let faulted = Scenario::builder().group(4, 2).partition(2, 4, 2).build();
        let point = Point::run(&faulted, Protocol::Pmcast);
        sweep.row(vec![col("pmcast", "pmcast", point.pair())]);
    }

    fn ran(options: &Options) -> (bool, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let passed = run(options, &mut out, &mut err).unwrap();
        (passed, String::from_utf8(out).unwrap(), String::from_utf8(err).unwrap())
    }

    #[test]
    fn a_gate_that_gated_nothing_fails_and_names_the_sweep() {
        let mut options = parsed("--check-model 0.08", Some("scale_sweep")).unwrap();
        static UNGATEABLE: Decl = Decl::new(&["ungateable"], "ungateable", true, ungateable);
        options.sweeps = vec![&UNGATEABLE];
        let (passed, _, err) = ran(&options);
        assert!(!passed);
        assert!(err.contains("model check: 0 rows gated"), "{err}");
        assert!(
            err.contains("ungateable: model check gated no in-domain row (1 skipped)"),
            "{err}"
        );
        // Without the flag there is no gate, and nothing to fail.
        options.check_model = None;
        assert_eq!(ran(&options), (true, " pmcast\n0.875/-\n".to_string(), String::new()));
    }

    #[test]
    fn run_gates_a_registered_sweep_and_writes_its_csv_under_out() {
        let dir = std::env::temp_dir().join(format!("pmcast-sweep-test-{}", std::process::id()));
        let line = format!("--check-model 0.05 --json --out {}", dir.display());
        let (passed, json, err) = ran(&parsed(&line, Some("scale_sweep")).unwrap());
        assert!(passed && json.lines().count() == 2, "{err}");
        assert!(err.contains("model check: 2 rows gated at |err| <= 0.05, 0 out-of-domain"));
        let csv = std::fs::read_to_string(dir.join("scale_sweep.csv")).unwrap();
        assert!(csv.starts_with("n,arity,depth,provider,seconds_per_trial,delivery_ratio,"));
        assert!(csv.lines().nth(1).unwrap().starts_with("512.000000,8.000000,3.000000,global,"));
        std::fs::remove_dir_all(&dir).ok();
        // An absurdly tight tolerance makes the same sweep fail (exit 1).
        let tight = parsed("--check-model 0.000000001", Some("scale_sweep")).unwrap();
        let (passed, _, err) = ran(&tight);
        assert!(!passed);
        assert!(err.contains("scale_sweep: model drift: 2 of 2 gated rows exceed"), "{err}");
    }
}
