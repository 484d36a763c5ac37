//! `BENCH_<target>.json`: the perf-trajectory artifact each bench target
//! emits when `MARLIN_BENCH_JSON=<dir>` is set, so successive PRs can
//! compare wall-time and virtual-throughput against a recorded baseline.

use crate::json;
use crate::profile::ProfileSummary;

/// One measured section of a bench target — typically one scenario run.
#[derive(Clone, Debug, Default)]
pub struct BenchSection {
    /// Section label (scenario + backend, or a microbench name).
    pub name: String,
    /// Wall-clock nanoseconds the section took.
    pub wall_nanos: u64,
    /// Virtual nanoseconds simulated (0 for non-sim sections).
    pub virtual_nanos: u64,
    /// Whether the section ran under a *wall-clock budget* (a probe
    /// that covers as much virtual time as the budget allows), making
    /// `virtual_nanos` wall-dependent. Comparators must then gate the
    /// virtual-per-wall *rate*, never the virtual total.
    pub wall_bounded: bool,
    /// Profiler numbers, when the section ran a profiled sim.
    pub profile: Option<ProfileSummary>,
    /// Free-form scalar results (`("overhead_pct", 0.4)`, ...).
    pub values: Vec<(String, f64)>,
}

impl BenchSection {
    fn write_json(&self, o: &mut json::Obj<'_>) {
        o.field("name", &self.name)
            .field("wall_ns", self.wall_nanos)
            .field("virtual_ns", self.virtual_nanos)
            .field("virtual_per_wall", self.virtual_per_wall());
        if self.wall_bounded {
            o.field("wall_bounded", true);
        }
        if let Some(p) = &self.profile {
            o.obj("profile", |o| {
                o.field("total_wall_ns", p.total_wall_nanos)
                    .field("events", p.events)
                    .field("queue_depth_mean", p.queue_depth_mean)
                    .field("queue_depth_max", p.queue_depth_max);
                p.write_phases(o);
            });
        }
        if !self.values.is_empty() {
            o.obj("values", |o| {
                for (k, v) in &self.values {
                    o.field(k, v);
                }
            });
        }
    }

    /// Virtual-seconds simulated per wall-second — the sim's speedup
    /// over real time (0 when nothing was simulated or measured).
    #[must_use]
    pub fn virtual_per_wall(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.virtual_nanos as f64 / self.wall_nanos as f64
        }
    }
}

/// The whole artifact: one per bench target per run.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Bench target name (`autoscale_closed_loop`, ...); becomes the
    /// `BENCH_<target>.json` filename.
    pub target: String,
    /// The `MARLIN_SCALE` the run used.
    pub scale: u64,
    /// Measured sections in run order.
    pub sections: Vec<BenchSection>,
}

impl BenchReport {
    /// An empty report for `target` at `scale`.
    #[must_use]
    pub fn new(target: &str, scale: u64) -> Self {
        BenchReport {
            target: target.to_string(),
            scale,
            sections: Vec::new(),
        }
    }

    /// Serialize to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 256 * self.sections.len());
        json::object(&mut out, |o| {
            o.field("target", &self.target).field("scale", self.scale);
            o.arr("sections", |a| {
                for s in &self.sections {
                    a.obj(|o| s.write_json(o));
                }
            });
        });
        out.push('\n');
        out
    }

    /// If `MARLIN_BENCH_JSON=<dir>` is set, write the artifact there as
    /// `BENCH_<target>.json` (creating the directory) and return the
    /// path. Silent no-op otherwise, so bench targets call this
    /// unconditionally.
    pub fn maybe_write(&self) -> Option<String> {
        let dir = std::env::var("MARLIN_BENCH_JSON")
            .ok()
            .filter(|d| !d.is_empty())?;
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("MARLIN_BENCH_JSON: cannot create {dir}: {e}");
            return None;
        }
        let path = format!("{dir}/BENCH_{}.json", self.target);
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => {
                println!("wrote perf trajectory to {path}");
                Some(path)
            }
            Err(e) => {
                eprintln!("MARLIN_BENCH_JSON: cannot write {path}: {e}");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};
    use crate::profile::PhaseStat;

    #[test]
    fn bench_json_is_wellformed() {
        let mut r = BenchReport::new("micro \"quoted\"", 100);
        r.sections.push(BenchSection {
            name: "ycsb/Marlin".into(),
            wall_nanos: 2_000_000,
            virtual_nanos: 4_000_000,
            wall_bounded: false,
            profile: Some(ProfileSummary {
                phases: vec![PhaseStat {
                    name: "event:client_txn",
                    wall_nanos: 1_500_000,
                    calls: 42,
                }],
                total_wall_nanos: 1_900_000,
                events: 43,
                queue_depth_mean: 3.5,
                queue_depth_max: 9,
            }),
            values: vec![("overhead_pct".into(), 0.4)],
        });
        let j = r.to_json();
        assert!(j.contains("\"target\":\"micro \\\"quoted\\\"\""));
        assert!(j.contains("\"virtual_per_wall\":2"));
        assert!(j.contains(
            "\"phases\":[{\"name\":\"event:client_txn\",\"wall_ns\":1500000,\"calls\":42}]"
        ));
        assert!(j.contains("\"values\":{\"overhead_pct\":0.4}"));
        let v = parse_json(&j).expect("the artifact parses");
        assert_eq!(
            v.get("target").and_then(Json::as_str),
            Some("micro \"quoted\"")
        );
        let section = &v.get("sections").and_then(Json::as_arr).expect("sections")[0];
        assert_eq!(
            section.get("values").and_then(|x| x.get("overhead_pct")),
            Some(&Json::Num(0.4))
        );
        r.sections.push(BenchSection {
            name: "plain".into(),
            wall_nanos: 10,
            wall_bounded: true,
            ..BenchSection::default()
        });
        assert_eq!(
            r.to_json(),
            r#"{"target":"micro \"quoted\"","scale":100,"sections":[{"name":"ycsb/Marlin","wall_ns":2000000,"virtual_ns":4000000,"virtual_per_wall":2,"profile":{"total_wall_ns":1900000,"events":43,"queue_depth_mean":3.5,"queue_depth_max":9,"phases":[{"name":"event:client_txn","wall_ns":1500000,"calls":42}]},"values":{"overhead_pct":0.4}},{"name":"plain","wall_ns":10,"virtual_ns":0,"virtual_per_wall":0,"wall_bounded":true}]}
"#
        );
    }

    #[test]
    fn sections_without_profile_omit_the_key() {
        let mut r = BenchReport::new("t", 1);
        r.sections.push(BenchSection {
            name: "plain".into(),
            wall_nanos: 10,
            ..BenchSection::default()
        });
        let j = r.to_json();
        assert!(!j.contains("\"profile\""));
        assert!(!j.contains("\"values\""));
        assert!(j.contains("\"virtual_per_wall\":0"));
        assert_eq!(
            j,
            r#"{"target":"t","scale":1,"sections":[{"name":"plain","wall_ns":10,"virtual_ns":0,"virtual_per_wall":0}]}
"#
        );
    }
}
