//! Typed dataflow IR (`FlowIr`): lowering, validation, and rewrite
//! passes over [`DataflowSpec`]s.
//!
//! §II-B promises that "the flow can change without changing function
//! code" — which is only safe when the flow is *checked and optimized
//! statically* before any invocation runs. This module lowers a spec
//! into typed nodes with explicit dependency/consumer edges, reports
//! every structural defect as a [`FlowDefect`] (subsuming the checks
//! `DataflowSpec::validate` performs), and runs rewrite passes:
//!
//! - **dead-stage elimination** — steps whose output never reaches the
//!   flow output, bound to the flow's own object, and declared
//!   effect-free (readonly) are removed;
//! - **same-object stage fusion** — a linear chain of self-bound steps
//!   collapses into one [`FlowUnit`] that the platform executes under a
//!   single shard-lock hold with a single state commit (presigns are
//!   hoisted to once per chain as a side effect);
//! - **parallelism extraction** — the remaining units are grouped into
//!   ASAP stages, mirroring `DataflowSpec::stages` when nothing fuses.
//!
//! The result is a [`FlowProgram`]: an execution schedule the platform
//! compiles into its cached dispatch plans at deploy time, so the hot
//! path never re-validates or re-plans a flow per invocation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use oprc_value::Value;

use crate::dataflow::{DataRef, DataflowSpec};

/// One structural defect found while lowering a [`DataflowSpec`].
///
/// Fatal defects ([`FlowDefect::is_fatal`]) make the flow unexecutable
/// and abort lowering; the rest are suspicious-but-runnable patterns
/// surfaced as lints.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowDefect {
    /// The dataflow has an empty name.
    EmptyName,
    /// The dataflow has no steps.
    NoSteps,
    /// A step has an empty id.
    EmptyStepId,
    /// Two steps share one id.
    DuplicateStepId {
        /// The duplicated id.
        step: String,
    },
    /// A step references a step id that does not exist.
    UnknownStepRef {
        /// The referencing step.
        step: String,
        /// The missing id it references.
        referenced: String,
    },
    /// A step references its own output.
    SelfDependency {
        /// The offending step.
        step: String,
    },
    /// The `output` field names a step that does not exist.
    UnknownOutputStep {
        /// The missing id.
        output: String,
    },
    /// The steps contain a dependency cycle.
    Cycle {
        /// The wedged step ids, sorted.
        members: Vec<String>,
    },
    /// A JSON pointer does not start with `/` and always resolves to
    /// null. Non-fatal: the flow runs, the binding is just useless.
    MalformedPointer {
        /// The step carrying the pointer.
        step: String,
        /// The malformed pointer text.
        pointer: String,
    },
    /// A step's `target` is an inline constant that is not an object
    /// id (object ids are unsigned integers). Non-fatal statically —
    /// today it fails at invocation time — but always a bug.
    ConstTargetNotObjectId {
        /// The offending step.
        step: String,
        /// The constant that can never be an object id.
        value: Value,
    },
}

impl FlowDefect {
    /// True when the defect makes the flow unexecutable (lowering
    /// fails); mirrors exactly what `DataflowSpec::validate` rejects.
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            FlowDefect::MalformedPointer { .. } | FlowDefect::ConstTargetNotObjectId { .. }
        )
    }

    /// The step id the defect anchors to, when it is step-scoped.
    pub fn step(&self) -> Option<&str> {
        match self {
            FlowDefect::UnknownStepRef { step, .. }
            | FlowDefect::SelfDependency { step }
            | FlowDefect::MalformedPointer { step, .. }
            | FlowDefect::ConstTargetNotObjectId { step, .. } => Some(step),
            _ => None,
        }
    }
}

impl fmt::Display for FlowDefect {
    /// Renders the defect with the exact reason strings
    /// `DataflowSpec::validate` has always produced, so errors stay
    /// stable across the IR migration.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowDefect::EmptyName => write!(f, "dataflow name must not be empty"),
            FlowDefect::NoSteps => write!(f, "dataflow needs at least one step"),
            FlowDefect::EmptyStepId => write!(f, "step id must not be empty"),
            FlowDefect::DuplicateStepId { step } => write!(f, "duplicate step id '{step}'"),
            FlowDefect::UnknownStepRef { step, referenced } => {
                write!(f, "step '{step}' references unknown step '{referenced}'")
            }
            FlowDefect::SelfDependency { step } => write!(f, "step '{step}' depends on itself"),
            FlowDefect::UnknownOutputStep { output } => {
                write!(f, "output references unknown step '{output}'")
            }
            FlowDefect::Cycle { .. } => write!(f, "dataflow contains a dependency cycle"),
            FlowDefect::MalformedPointer { step, pointer } => write!(
                f,
                "step '{step}': JSON pointer '{pointer}' does not start with '/' \
                 and always resolves to null"
            ),
            FlowDefect::ConstTargetNotObjectId { step, value } => write!(
                f,
                "step '{step}' targets constant {value}, which can never be an object id"
            ),
        }
    }
}

/// How a node binds to an object at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Runs on the dataflow's own object.
    SelfInvoke,
    /// Runs on another object, resolved from data at execution time.
    CrossObject,
}

/// Static binding annotations attached after lowering, when class
/// context is available (the lowering itself is context-free).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeBinding {
    /// The class the step dispatches on when statically known
    /// (self-bound steps bind to the owning class; dynamic targets
    /// stay unknown until execution).
    pub class: Option<String>,
    /// The function is declared readonly (no state effects) on that
    /// class, making the node safe for dead-stage elimination.
    pub readonly: bool,
    /// Availability target from the effective NFR, when declared.
    pub availability: Option<f64>,
}

/// One typed node of the lowered flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowNode {
    /// The step id.
    pub id: String,
    /// The function the step invokes.
    pub function: String,
    /// Positional input bindings.
    pub inputs: Vec<DataRef>,
    /// `None` = the flow's own object; otherwise a ref resolved at
    /// execution time.
    pub target: Option<DataRef>,
    /// Indices of nodes this node's inputs/target reference.
    pub deps: BTreeSet<usize>,
    /// Indices of nodes referencing this node's output.
    pub consumers: BTreeSet<usize>,
    /// Class/NFR annotations, filled by [`FlowIr::bind`].
    pub binding: NodeBinding,
}

impl FlowNode {
    /// Whether the node runs on the flow's own object or crosses over.
    pub fn kind(&self) -> NodeKind {
        match self.target {
            None => NodeKind::SelfInvoke,
            Some(_) => NodeKind::CrossObject,
        }
    }

    /// The constant target value when the node targets an inline
    /// constant that can never resolve to an object id.
    pub fn const_target_mismatch(&self) -> Option<&Value> {
        match &self.target {
            Some(DataRef::Const(v)) if v.as_u64().is_none() => Some(v),
            _ => None,
        }
    }
}

/// Which rewrite passes [`FlowIr::optimize`] runs.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// Remove effect-free steps whose output never reaches the flow
    /// output.
    pub eliminate_dead: bool,
    /// Fuse linear same-object chains into single units.
    pub fuse: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig {
            eliminate_dead: true,
            fuse: true,
        }
    }
}

impl PassConfig {
    /// Disables every rewrite: the *plain* program, the spec's own
    /// stages with one unit per step — what the platform's flow engine
    /// walks serially when fault injection is armed.
    pub fn disabled() -> Self {
        PassConfig {
            eliminate_dead: false,
            fuse: false,
        }
    }
}

/// One executable unit of a [`FlowProgram`] stage: a single step, or a
/// fused same-object chain the platform runs under one shard-lock hold
/// with one commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowUnit {
    /// Node indices, in execution order (length > 1 ⇒ fused chain).
    pub steps: Vec<usize>,
}

impl FlowUnit {
    /// True for a fused multi-step chain.
    pub fn is_fused(&self) -> bool {
        self.steps.len() > 1
    }
}

/// The optimized, schedulable form of a flow: ASAP stages of units
/// plus a record of what each rewrite pass did (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowProgram {
    /// Stages of mutually independent units; every unit in stage *k*
    /// depends only on units in stages `< k`.
    pub stages: Vec<Vec<FlowUnit>>,
    /// Node indices removed by dead-stage elimination.
    pub eliminated: Vec<usize>,
    /// Fused chains (node indices in chain order).
    pub fused: Vec<Vec<usize>>,
}

impl FlowProgram {
    /// Stage indices holding two or more independent units — the
    /// parallelism the pass pipeline extracted from declaration order.
    pub fn parallel_stages(&self) -> Vec<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, units)| units.len() > 1)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The typed dataflow IR: nodes with explicit edges plus the output
/// node, produced by [`FlowIr::lower`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowIr {
    /// The dataflow name.
    pub name: String,
    /// The lowered nodes, in declaration order.
    pub nodes: Vec<FlowNode>,
    /// Index of the node whose output is the flow result.
    pub output: usize,
}

impl FlowIr {
    /// Scans `df` for every structural defect, in deterministic
    /// order: naming/shape defects first, then per-step reference
    /// defects in declaration order, then output and cycle checks.
    ///
    /// This subsumes `DataflowSpec::validate` (the first fatal defect
    /// is exactly the error `validate` reports) and the analyzer's
    /// DAG-hygiene pass (which renders these same defects as lints).
    pub fn check(df: &DataflowSpec) -> Vec<FlowDefect> {
        let mut out = Vec::new();
        if df.name.is_empty() {
            out.push(FlowDefect::EmptyName);
        }
        if df.steps.is_empty() {
            out.push(FlowDefect::NoSteps);
            return out;
        }
        let mut ids: BTreeSet<&str> = BTreeSet::new();
        for step in &df.steps {
            if step.id.is_empty() {
                out.push(FlowDefect::EmptyStepId);
            } else if !ids.insert(step.id.as_str()) {
                out.push(FlowDefect::DuplicateStepId {
                    step: step.id.clone(),
                });
            }
        }
        for step in &df.steps {
            for r in step.inputs.iter().chain(step.target.iter()) {
                if let DataRef::Step { step: dep, pointer } = r {
                    if dep == &step.id {
                        out.push(FlowDefect::SelfDependency {
                            step: step.id.clone(),
                        });
                    } else if !ids.contains(dep.as_str()) {
                        out.push(FlowDefect::UnknownStepRef {
                            step: step.id.clone(),
                            referenced: dep.clone(),
                        });
                    }
                    if let Some(p) = pointer {
                        if !p.is_empty() && !p.starts_with('/') {
                            out.push(FlowDefect::MalformedPointer {
                                step: step.id.clone(),
                                pointer: p.clone(),
                            });
                        }
                    }
                }
            }
            if let Some(DataRef::Const(v)) = &step.target {
                if v.as_u64().is_none() {
                    out.push(FlowDefect::ConstTargetNotObjectId {
                        step: step.id.clone(),
                        value: v.clone(),
                    });
                }
            }
        }
        if let Some(out_id) = &df.output {
            if !ids.contains(out_id.as_str()) {
                out.push(FlowDefect::UnknownOutputStep {
                    output: out_id.clone(),
                });
            }
        }
        if let Some(members) = find_cycle(df, &ids) {
            out.push(FlowDefect::Cycle { members });
        }
        out
    }

    /// Lowers `df` into the typed IR.
    ///
    /// # Errors
    ///
    /// Returns every defect found (fatal and not) when any fatal
    /// defect makes the flow unexecutable.
    pub fn lower(df: &DataflowSpec) -> Result<FlowIr, Vec<FlowDefect>> {
        let defects = Self::check(df);
        if defects.iter().any(FlowDefect::is_fatal) {
            return Err(defects);
        }
        let index: BTreeMap<&str, usize> = df
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.as_str(), i))
            .collect();
        let mut nodes: Vec<FlowNode> = df
            .steps
            .iter()
            .map(|s| {
                let deps: BTreeSet<usize> = s
                    .inputs
                    .iter()
                    .chain(s.target.iter())
                    .filter_map(|r| match r {
                        DataRef::Step { step, .. } => index.get(step.as_str()).copied(),
                        _ => None,
                    })
                    .collect();
                FlowNode {
                    id: s.id.clone(),
                    function: s.function.clone(),
                    inputs: s.inputs.clone(),
                    target: s.target.clone(),
                    deps,
                    consumers: BTreeSet::new(),
                    binding: NodeBinding::default(),
                }
            })
            .collect();
        for i in 0..nodes.len() {
            for d in nodes[i].deps.clone() {
                nodes[d].consumers.insert(i);
            }
        }
        let output = df
            .output_step()
            .and_then(|id| index.get(id).copied())
            .expect("fatal defects rejected above guarantee an output step");
        Ok(FlowIr {
            name: df.name.clone(),
            nodes,
            output,
        })
    }

    /// Index of the node with step id `id`.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// Attaches class/NFR annotations to every node.
    pub fn bind(&mut self, mut f: impl FnMut(&FlowNode) -> NodeBinding) {
        for i in 0..self.nodes.len() {
            self.nodes[i].binding = f(&self.nodes[i]);
        }
    }

    /// Nodes whose output transitively reaches the flow output (the
    /// output node is always live).
    pub fn live_set(&self) -> BTreeSet<usize> {
        let mut live = BTreeSet::new();
        let mut work = vec![self.output];
        while let Some(i) = work.pop() {
            if live.insert(i) {
                work.extend(self.nodes[i].deps.iter().copied());
            }
        }
        live
    }

    /// ASAP stages over individual nodes, ready sets ordered by step
    /// id — identical to `DataflowSpec::stages` on the same flow.
    pub fn schedule(&self) -> Vec<Vec<usize>> {
        self.schedule_units(&(0..self.nodes.len()).map(|i| vec![i]).collect::<Vec<_>>())
            .into_iter()
            .map(|stage| stage.into_iter().map(|u| u.steps[0]).collect())
            .collect()
    }

    /// Runs the rewrite passes and schedules the result.
    ///
    /// `effect_free` marks nodes that are safe to delete when dead: a
    /// node is eliminated only when it is self-bound, effect-free,
    /// does not reach the flow output, and no surviving node consumes
    /// it. Cross-object nodes are never eliminated (their target
    /// resolution is an observable effect).
    pub fn optimize(
        &self,
        cfg: &PassConfig,
        effect_free: impl Fn(&FlowNode) -> bool,
    ) -> FlowProgram {
        // Pass 1 — dead-stage elimination (fixpoint from the sinks).
        let mut removed: BTreeSet<usize> = BTreeSet::new();
        if cfg.eliminate_dead {
            let live = self.live_set();
            loop {
                let next: Vec<usize> = (0..self.nodes.len())
                    .filter(|i| {
                        let n = &self.nodes[*i];
                        !removed.contains(i)
                            && !live.contains(i)
                            && n.target.is_none()
                            && effect_free(n)
                            && n.consumers.iter().all(|c| removed.contains(c))
                    })
                    .collect();
                if next.is_empty() {
                    break;
                }
                removed.extend(next);
            }
        }
        let survivors: Vec<usize> = (0..self.nodes.len())
            .filter(|i| !removed.contains(i))
            .collect();

        // Pass 2 — same-object stage fusion. Fusing is only sound when
        // the chain is the *complete* set of surviving self-bound nodes
        // (so no other node can observe the object's state between the
        // chain's steps) and each interior link is a pure pipeline:
        // sole consumer, sole dependency, not the flow output.
        let mut fused: Vec<Vec<usize>> = Vec::new();
        if cfg.fuse {
            let selfs: BTreeSet<usize> = survivors
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].target.is_none())
                .collect();
            if selfs.len() >= 2 {
                let heads: Vec<usize> = selfs
                    .iter()
                    .copied()
                    .filter(|&i| self.nodes[i].deps.is_disjoint(&selfs))
                    .collect();
                if let [head] = heads[..] {
                    let mut chain = vec![head];
                    loop {
                        let cur = *chain.last().expect("chain never empty");
                        if cur == self.output {
                            break;
                        }
                        let cons: Vec<usize> = self.nodes[cur]
                            .consumers
                            .iter()
                            .copied()
                            .filter(|c| !removed.contains(c))
                            .collect();
                        let [next] = cons[..] else { break };
                        if !selfs.contains(&next) || self.nodes[next].deps.iter().ne([cur].iter()) {
                            break;
                        }
                        chain.push(next);
                    }
                    if chain.len() == selfs.len() {
                        fused.push(chain);
                    }
                }
            }
        }

        // Pass 3 — parallelism extraction: ASAP stages over units.
        let in_chain: BTreeSet<usize> = fused.iter().flatten().copied().collect();
        let mut units: Vec<Vec<usize>> = fused.clone();
        units.extend(
            survivors
                .iter()
                .copied()
                .filter(|i| !in_chain.contains(i))
                .map(|i| vec![i]),
        );
        let stages = self.schedule_units(&units);
        FlowProgram {
            stages,
            eliminated: removed.into_iter().collect(),
            fused,
        }
    }

    /// ASAP stages over arbitrary units; a unit is ready when every
    /// external dependency of every member is already scheduled. Ready
    /// units are ordered by their first member's step id, matching the
    /// `BTreeMap` ready-set order of `DataflowSpec::stages`.
    fn schedule_units(&self, units: &[Vec<usize>]) -> Vec<Vec<FlowUnit>> {
        let scheduled_nodes = |done_units: &BTreeSet<usize>| -> BTreeSet<usize> {
            done_units
                .iter()
                .flat_map(|&u| units[u].iter().copied())
                .collect()
        };
        let mut remaining: BTreeSet<usize> = (0..units.len()).collect();
        let mut done: BTreeSet<usize> = BTreeSet::new();
        let mut stages = Vec::new();
        while !remaining.is_empty() {
            let visible = scheduled_nodes(&done);
            let mut ready: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&u| {
                    let members: BTreeSet<usize> = units[u].iter().copied().collect();
                    units[u].iter().all(|&n| {
                        self.nodes[n]
                            .deps
                            .iter()
                            .all(|d| members.contains(d) || visible.contains(d))
                    })
                })
                .collect();
            assert!(
                !ready.is_empty(),
                "cyclic unit graph — lower() admits only acyclic flows"
            );
            ready.sort_by(|&a, &b| self.nodes[units[a][0]].id.cmp(&self.nodes[units[b][0]].id));
            let stage: Vec<FlowUnit> = ready
                .iter()
                .map(|&u| FlowUnit {
                    steps: units[u].clone(),
                })
                .collect();
            for u in ready {
                remaining.remove(&u);
                done.insert(u);
            }
            stages.push(stage);
        }
        stages
    }
}

/// Kahn's algorithm over *known* step references (unknown ids and
/// self-references are reported separately and do not block progress).
/// Returns the wedged step ids, sorted, when no topological order
/// exists.
fn find_cycle(df: &DataflowSpec, ids: &BTreeSet<&str>) -> Option<Vec<String>> {
    let deps_of = |id: &str| -> Vec<&str> {
        df.steps
            .iter()
            .filter(|s| s.id == id)
            .flat_map(|s| s.inputs.iter().chain(s.target.iter()))
            .filter_map(|r| match r {
                DataRef::Step { step, .. } if step != id && ids.contains(step.as_str()) => {
                    Some(step.as_str())
                }
                _ => None,
            })
            .collect()
    };
    let mut remaining: BTreeMap<&str, Vec<&str>> =
        ids.iter().map(|id| (*id, deps_of(id))).collect();
    loop {
        let ready: Vec<&str> = remaining
            .iter()
            .filter(|(_, deps)| deps.iter().all(|d| !remaining.contains_key(d)))
            .map(|(id, _)| *id)
            .collect();
        if ready.is_empty() {
            break;
        }
        for id in ready {
            remaining.remove(id);
        }
    }
    if remaining.is_empty() {
        None
    } else {
        Some(remaining.keys().map(|s| (*s).to_string()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::StepSpec;
    use oprc_value::vjson;

    fn chain3() -> DataflowSpec {
        DataflowSpec::new("pipe")
            .step(StepSpec::new("a", "f").from_input())
            .step(StepSpec::new("b", "g").from_step("a"))
            .step(StepSpec::new("c", "h").from_step("b"))
    }

    #[test]
    fn lowering_builds_edges_both_ways() {
        let ir = FlowIr::lower(&chain3()).unwrap();
        assert_eq!(ir.nodes.len(), 3);
        assert_eq!(ir.output, 2);
        assert!(ir.nodes[0].deps.is_empty());
        assert_eq!(ir.nodes[1].deps, BTreeSet::from([0]));
        assert_eq!(ir.nodes[0].consumers, BTreeSet::from([1]));
        assert_eq!(ir.nodes[2].consumers, BTreeSet::new());
        assert_eq!(ir.nodes[0].kind(), NodeKind::SelfInvoke);
    }

    #[test]
    fn check_matches_validate_on_every_fatal_defect() {
        let broken: Vec<DataflowSpec> = vec![
            DataflowSpec::new(""),
            DataflowSpec::new("empty"),
            DataflowSpec::new("d").step(StepSpec::new("", "f")),
            DataflowSpec::new("d")
                .step(StepSpec::new("a", "f"))
                .step(StepSpec::new("a", "g")),
            DataflowSpec::new("d").step(StepSpec::new("a", "f").from_step("ghost")),
            DataflowSpec::new("d").step(StepSpec::new("a", "f").from_step("a")),
            chain3().output_from("nope"),
            DataflowSpec::new("loop")
                .step(StepSpec::new("a", "f").from_step("b"))
                .step(StepSpec::new("b", "g").from_step("a")),
        ];
        for df in broken {
            let err = df.validate().unwrap_err().to_string();
            let first_fatal = FlowIr::check(&df)
                .into_iter()
                .find(FlowDefect::is_fatal)
                .expect("fatal defect found");
            assert!(
                err.contains(&first_fatal.to_string()),
                "validate said {err:?}, check said {first_fatal}"
            );
            assert!(FlowIr::lower(&df).is_err());
        }
    }

    #[test]
    fn nonfatal_defects_do_not_block_lowering() {
        let df = DataflowSpec::new("d")
            .step(StepSpec::new("a", "f").from_input())
            .step(
                StepSpec::new("b", "g")
                    .on_target(DataRef::Const(vjson!("not-an-id")))
                    .from_step_pointer("a", "meta/width"),
            );
        let defects = FlowIr::check(&df);
        assert_eq!(defects.len(), 2);
        assert!(defects.iter().all(|d| !d.is_fatal()));
        let ir = FlowIr::lower(&df).unwrap();
        assert_eq!(ir.nodes[1].kind(), NodeKind::CrossObject);
        assert!(ir.nodes[1].const_target_mismatch().is_some());
    }

    #[test]
    fn schedule_matches_spec_stages() {
        let df = DataflowSpec::new("diamond")
            .step(StepSpec::new("resize", "f").from_input())
            .step(StepSpec::new("thumb", "g").from_step("resize"))
            .step(StepSpec::new("mark", "h").from_step("resize"))
            .step(
                StepSpec::new("combine", "k")
                    .from_step("thumb")
                    .from_step("mark"),
            );
        let ir = FlowIr::lower(&df).unwrap();
        let by_ids: Vec<Vec<&str>> = ir
            .schedule()
            .into_iter()
            .map(|st| st.into_iter().map(|i| ir.nodes[i].id.as_str()).collect())
            .collect();
        let spec: Vec<Vec<&str>> = df
            .stages()
            .into_iter()
            .map(|st| st.into_iter().map(|s| s.id.as_str()).collect())
            .collect();
        assert_eq!(by_ids, spec);
    }

    #[test]
    fn linear_self_chain_fuses_into_one_unit() {
        let ir = FlowIr::lower(&chain3()).unwrap();
        let prog = ir.optimize(&PassConfig::default(), |_| false);
        assert_eq!(prog.stages.len(), 1);
        assert_eq!(prog.stages[0].len(), 1);
        assert!(prog.stages[0][0].is_fused());
        assert_eq!(prog.stages[0][0].steps, vec![0, 1, 2]);
        assert_eq!(prog.fused, vec![vec![0, 1, 2]]);
        assert!(prog.eliminated.is_empty());
    }

    #[test]
    fn fan_in_does_not_fuse() {
        let df = DataflowSpec::new("fanin")
            .step(StepSpec::new("a", "f").from_input())
            .step(StepSpec::new("b", "g").from_input())
            .step(StepSpec::new("merge", "h").from_step("a").from_step("b"));
        let ir = FlowIr::lower(&df).unwrap();
        let prog = ir.optimize(&PassConfig::default(), |_| false);
        assert!(prog.fused.is_empty());
        assert_eq!(prog.stages.len(), 2);
        assert_eq!(prog.stages[0].len(), 2, "a and b stay parallel");
        assert_eq!(prog.parallel_stages(), vec![0]);
    }

    #[test]
    fn cross_object_interleaver_blocks_fusion() {
        // a → b is linear, but a's output also feeds a cross-object
        // step, so a has two consumers and the chain must not fuse.
        let df = DataflowSpec::new("leaky")
            .step(StepSpec::new("a", "f").from_input())
            .step(StepSpec::new("b", "g").from_step("a"))
            .step(
                StepSpec::new("x", "h")
                    .on_target(DataRef::Step {
                        step: "a".into(),
                        pointer: Some("/id".into()),
                    })
                    .from_step("b"),
            );
        let ir = FlowIr::lower(&df).unwrap();
        let prog = ir.optimize(&PassConfig::default(), |_| false);
        assert!(prog.fused.is_empty());
    }

    #[test]
    fn dead_readonly_steps_are_eliminated_transitively() {
        // probe → audit dangles off the pipeline; both are readonly.
        let df = DataflowSpec::new("d")
            .step(StepSpec::new("a", "f").from_input())
            .step(StepSpec::new("probe", "peek").from_step("a"))
            .step(StepSpec::new("audit", "peek").from_step("probe"))
            .step(StepSpec::new("b", "g").from_step("a"))
            .output_from("b");
        let ir = FlowIr::lower(&df).unwrap();
        let readonly = |n: &FlowNode| n.function == "peek";
        let prog = ir.optimize(&PassConfig::default(), readonly);
        let gone: Vec<&str> = prog
            .eliminated
            .iter()
            .map(|&i| ir.nodes[i].id.as_str())
            .collect();
        assert_eq!(gone, vec!["probe", "audit"]);
        // What survives is the a → b chain, now fusable.
        assert_eq!(prog.fused, vec![vec![0, 3]]);

        // Effectful steps survive even when their output is unused.
        let prog = ir.optimize(&PassConfig::default(), |_| false);
        assert!(prog.eliminated.is_empty());
        assert!(
            prog.fused.is_empty(),
            "dangling effectful steps keep the object multi-writer"
        );
    }

    #[test]
    fn disabled_passes_mirror_the_interpreter() {
        let ir = FlowIr::lower(&chain3()).unwrap();
        let prog = ir.optimize(&PassConfig::disabled(), |_| true);
        assert!(prog.fused.is_empty());
        assert!(prog.eliminated.is_empty());
        assert_eq!(prog.stages.len(), 3);
        assert!(prog.stages.iter().all(|st| st.len() == 1));
    }

    #[test]
    fn output_step_never_fuses_as_interior_link() {
        // a → b with output pinned to a: fusing would be fine for
        // state, but a is the flow output *and* has b as consumer —
        // the conservative rule still fuses only when a's sole role is
        // feeding b. Here the chain [a, b] is allowed because `output:
        // a` does not add a consumer edge; what matters is that the
        // chain stops extending *past* the output node.
        let df = DataflowSpec::new("d")
            .step(StepSpec::new("a", "f").from_input())
            .step(StepSpec::new("b", "g").from_step("a"))
            .output_from("a");
        let ir = FlowIr::lower(&df).unwrap();
        let prog = ir.optimize(&PassConfig::default(), |_| false);
        // a is the output: the chain may not extend past it.
        assert!(prog.fused.is_empty());
        assert_eq!(prog.stages.len(), 2);
    }
}
