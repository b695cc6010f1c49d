//! Figure data containers, table printing, CSV writing.

use gblas_sim::SimReport;
use std::io::Write;
use std::path::Path;

/// One sweep point: x (threads or nodes) and the simulated phase times.
#[derive(Debug, Clone)]
pub struct FigPoint {
    /// Thread or node count.
    pub x: usize,
    /// Simulated phase breakdown.
    pub report: SimReport,
}

/// One plotted line (e.g. "Apply1", "nnz=100M", "Gather Input").
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Sweep points in x order.
    pub points: Vec<FigPoint>,
}

/// A full figure: everything needed to print the paper's plot as a table.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. "fig01-shm".
    pub id: String,
    /// Human title quoting the paper's caption.
    pub title: String,
    /// Meaning of x ("threads" or "nodes").
    pub xlabel: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Assemble a figure.
    pub fn new(id: &str, title: &str, xlabel: &str) -> Self {
        Figure { id: id.into(), title: title.into(), xlabel: xlabel.into(), series: Vec::new() }
    }

    /// Append a series.
    pub fn push_series(&mut self, name: &str, points: Vec<FigPoint>) {
        self.series.push(Series { name: name.into(), points });
    }

    /// All phase names appearing anywhere in the figure, in first-seen
    /// order.
    fn phase_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for s in &self.series {
            for p in &s.points {
                for n in p.report.phase_names() {
                    if !names.iter().any(|m| m == n) {
                        names.push(n.to_string());
                    }
                }
            }
        }
        names
    }

    /// Print a paper-style table to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        let phases = self.phase_names();
        let multi = phases.len() > 1;
        for s in &self.series {
            println!("-- {}", s.name);
            print!("{:>8}  {:>12}", self.xlabel, "total(s)");
            if multi {
                for ph in &phases {
                    print!("  {ph:>12}");
                }
            }
            println!();
            for p in &s.points {
                print!("{:>8}  {:>12.6}", p.x, p.report.total());
                if multi {
                    for ph in &phases {
                        print!("  {:>12.6}", p.report.phase(ph));
                    }
                }
                println!();
            }
        }
    }

    /// Write `dir/<id>.csv` with columns
    /// `figure,series,x,phase,seconds` (one row per phase plus a `total`
    /// row per point).
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "figure,series,x,phase,seconds")?;
        for s in &self.series {
            for p in &s.points {
                for ph in p.report.iter() {
                    writeln!(f, "{},{},{},{},{}", self.id, s.name, p.x, ph.name, ph.seconds)?;
                }
                writeln!(f, "{},{},{},total,{}", self.id, s.name, p.x, p.report.total())?;
            }
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ph: &[(&str, f64)]) -> SimReport {
        let mut r = SimReport::default();
        for (n, s) in ph {
            r.push(n, *s);
        }
        r
    }

    #[test]
    fn csv_round_trip() {
        let mut fig = Figure::new("figtest", "t", "threads");
        fig.push_series(
            "A",
            vec![
                FigPoint { x: 1, report: report(&[("spa", 1.0), ("sort", 2.0)]) },
                FigPoint { x: 2, report: report(&[("spa", 0.5), ("sort", 1.0)]) },
            ],
        );
        let dir = std::env::temp_dir().join("gblas_bench_test");
        let path = fig.write_csv(&dir).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("figure,series,x,phase,seconds"));
        assert!(text.contains("figtest,A,1,spa,1"));
        assert!(text.contains("figtest,A,2,total,1.5"));
    }
}
