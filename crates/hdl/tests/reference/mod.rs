//! The two-pass macro expander as it stood before the single-walk
//! rewrite, kept verbatim as the reference for the equivalence oracle
//! (`expand_oracle.rs`). Only the imports differ: the crate-private
//! items it used are reached through `scald_hdl`'s public API.
//!
//! Pass 1 walks the design hierarchy resolving names — binding actual
//! signals to macro ports, scoping `/M` locals to their instance path, and
//! unifying the bit widths of every reference to each signal (the
//! "synonym" resolution of the SCALD Macro Expander's first pass). Pass 2
//! walks again and emits the fully elaborated primitive netlist for the
//! Timing Verifier.

#![allow(dead_code)]

use scald_assertions::parse_signal_name;
use scald_logic::Value;
use scald_netlist::{Config, Conn, NetlistBuilder, PrimKind, SignalId};
use scald_wave::{DelayRange, Skew, Time};
use std::collections::HashMap;
use std::time::Instant;

use scald_hdl::ast::{range_width, AttrVal, ConnExpr, Design, Env, ScopeMark, Stmt};
use scald_hdl::{parse, ExpandStats, Expansion, HdlError};

/// Maximum macro nesting depth before the expander assumes recursion.
const MAX_DEPTH: usize = 64;

/// Parses and expands HDL source in one step.
///
/// # Errors
///
/// Returns the first parse, expansion or netlist-validation error.
pub fn compile(src: &str) -> Result<Expansion, HdlError> {
    let design = parse(src)?;
    expand(&design)
}

/// Expands a parsed [`Design`] into a flat netlist.
///
/// # Errors
///
/// Returns an [`HdlError::Expand`] for unknown macros/signals, width
/// conflicts, bad parameters or recursion; [`HdlError::Netlist`] if the
/// emitted netlist fails validation.
pub fn expand(design: &Design) -> Result<Expansion, HdlError> {
    let config = Config {
        timing: scald_assertions::TimingContext {
            period: Time::from_ns(design.period_ns),
            clock_unit: Time::from_ns(design.clock_unit_ns),
            precision_skew: Skew::from_ns(design.precision_skew_ns.0, design.precision_skew_ns.1),
            nonprecision_skew: Skew::from_ns(design.clock_skew_ns.0, design.clock_skew_ns.1),
        },
        default_wire_delay: DelayRange::from_ns(design.wire_delay_ns.0, design.wire_delay_ns.1),
    };

    // Pass 1: resolve names and unify widths.
    let t1 = Instant::now();
    let mut pass1 = Walker {
        design,
        widths: HashMap::new(),
        wire_delays: Vec::new(),
        wired_ors: Vec::new(),
        builder: None,
        instances: 0,
        prims: 0,
    };
    pass1.block(&design.top, &Env::new(), &HashMap::new(), "TOP", 0)?;
    let widths = pass1.widths;
    let wire_delays = pass1.wire_delays;
    let wired_ors = pass1.wired_ors;
    let instances = pass1.instances;
    let pass1_time = t1.elapsed();

    // Pass 2: emit primitives.
    let t2 = Instant::now();
    let mut builder = NetlistBuilder::new(config);
    let mut pass2 = Walker {
        design,
        widths,
        wire_delays: Vec::new(),
        wired_ors: Vec::new(),
        builder: Some(&mut builder),
        instances: 0,
        prims: 0,
    };
    pass2.block(&design.top, &Env::new(), &HashMap::new(), "TOP", 0)?;
    let prims = pass2.prims;
    // Apply per-signal wire-delay overrides (§2.5.3).
    for (name, min, max) in &wire_delays {
        let (base, _) = split(name, 0)?;
        let sid = match builder.find_signal(&base) {
            Some(sid) => sid,
            None => builder.signal(&base).map_err(HdlError::Netlist)?,
        };
        builder.set_wire_delay(sid, DelayRange::from_ns(*min, *max));
    }
    for name in &wired_ors {
        let (base, _) = split(name, 0)?;
        let sid = match builder.find_signal(&base) {
            Some(sid) => sid,
            None => builder.signal(&base).map_err(HdlError::Netlist)?,
        };
        builder.mark_wired_or(sid);
    }
    let netlist = builder.finish()?;
    let pass2_time = t2.elapsed();

    let stats = ExpandStats {
        macros_defined: design.macros.len(),
        instances_expanded: instances,
        prims_emitted: prims,
        signals: netlist.signals().len(),
        pass1: pass1_time,
        pass2: pass2_time,
    };
    Ok(Expansion {
        netlist,
        cases: design.cases.clone(),
        stats,
    })
}

/// A signal reference resolved to its flat name.
#[derive(Debug, Clone)]
struct Bound {
    /// Full flat name, including any assertion suffix.
    name: String,
    invert: bool,
    directive: Option<String>,
}

fn split(full: &str, line: u32) -> Result<(String, Option<String>), HdlError> {
    match parse_signal_name(full) {
        Ok((base, a)) => Ok((base, a.map(|a| a.to_string()))),
        Err(e) => Err(HdlError::Expand {
            message: e.to_string(),
            line,
        }),
    }
}

struct Walker<'a> {
    design: &'a Design,
    /// base name -> unified width (None = not yet constrained).
    widths: HashMap<String, Option<u32>>,
    wire_delays: Vec<(String, f64, f64)>,
    wired_ors: Vec<String>,
    builder: Option<&'a mut NetlistBuilder>,
    instances: usize,
    prims: usize,
}

impl<'a> Walker<'a> {
    fn err<T>(&self, line: u32, message: impl Into<String>) -> Result<T, HdlError> {
        Err(HdlError::Expand {
            message: message.into(),
            line,
        })
    }

    /// Resolves a connection reference in the current scope.
    fn resolve(
        &mut self,
        conn: &ConnExpr,
        env: &Env,
        bindings: &HashMap<String, Bound>,
        path: &str,
        line: u32,
    ) -> Result<Bound, HdlError> {
        let (base, assertion) = split(&conn.name, line)?;
        let width = match &conn.range {
            Some(_) => Some(
                range_width(&conn.range, env).map_err(|m| HdlError::Expand { message: m, line })?,
            ),
            None => None,
        };
        let bound = if let Some(actual) = bindings.get(&base) {
            if assertion.is_some() {
                return self.err(
                    line,
                    format!("macro port reference {base:?} cannot carry an assertion"),
                );
            }
            Bound {
                name: actual.name.clone(),
                invert: conn.invert ^ actual.invert,
                directive: conn.directive.clone().or_else(|| actual.directive.clone()),
            }
        } else {
            let flat_base = if conn.scope == Some(ScopeMark::Local) {
                format!("{path}/{base}")
            } else {
                base.clone()
            };
            let name = match &assertion {
                Some(a) => format!("{flat_base} {a}"),
                None => flat_base,
            };
            Bound {
                name,
                invert: conn.invert,
                directive: conn.directive.clone(),
            }
        };
        // Unify widths on the flat base name.
        let (flat_base, _) = split(&bound.name, line)?;
        let entry = self.widths.entry(flat_base.clone()).or_insert(None);
        match (*entry, width) {
            (None, w) => *entry = w,
            (Some(_), None) => {}
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => {
                return self.err(
                    line,
                    format!("signal {flat_base:?} used with widths {a} and {b}"),
                )
            }
        }
        Ok(bound)
    }

    fn width_of(&self, bound: &Bound, line: u32) -> Result<u32, HdlError> {
        let (base, _) = split(&bound.name, line)?;
        Ok(self.widths.get(&base).copied().flatten().unwrap_or(1))
    }

    /// Declares the signal in the builder (pass 2 only) and returns a
    /// netlist connection.
    fn emit_conn(&mut self, bound: &Bound, line: u32) -> Result<Option<Conn>, HdlError> {
        let width = self.width_of(bound, line)?;
        let name = bound.name.clone();
        let Some(builder) = self.builder.as_deref_mut() else {
            return Ok(None);
        };
        let sid: SignalId = builder.signal_vec(&name, width)?;
        let mut conn = Conn::new(sid);
        if bound.invert {
            conn = conn.inverted();
        }
        if let Some(d) = &bound.directive {
            conn = conn.with_directive(d.clone());
        }
        Ok(Some(conn))
    }

    fn block(
        &mut self,
        stmts: &[Stmt],
        env: &Env,
        bindings: &HashMap<String, Bound>,
        path: &str,
        depth: usize,
    ) -> Result<(), HdlError> {
        if depth > MAX_DEPTH {
            return self.err(
                0,
                format!("macro nesting exceeds {MAX_DEPTH} levels; recursive macro?"),
            );
        }
        // Instance names are `{path}/{kind-or-macro}#{n}` where `n`
        // counts same-named statements *within this block only*. A
        // statement's generated name therefore depends only on the
        // statements above it in its own body — editing one macro body
        // never renames primitives expanded from another, which is what
        // lets incremental re-verification (`scald-incr`) match survivors
        // across a re-expansion.
        let mut ordinals: HashMap<&str, usize> = HashMap::new();
        fn next_ordinal<'k>(ordinals: &mut HashMap<&'k str, usize>, key: &'k str) -> usize {
            let n = ordinals.entry(key).or_insert(0);
            *n += 1;
            *n
        }
        for stmt in stmts {
            match stmt {
                Stmt::SignalDecl { conn, line } => {
                    self.resolve(conn, env, bindings, path, *line)?;
                }
                Stmt::WireDelay {
                    name,
                    min,
                    max,
                    line,
                } => {
                    let conn = ConnExpr {
                        invert: false,
                        name: name.clone(),
                        range: None,
                        scope: None,
                        directive: None,
                    };
                    let bound = self.resolve(&conn, env, bindings, path, *line)?;
                    self.wire_delays.push((bound.name, *min, *max));
                }
                Stmt::WiredOr { name, line } => {
                    let conn = ConnExpr {
                        invert: false,
                        name: name.clone(),
                        range: None,
                        scope: None,
                        directive: None,
                    };
                    let bound = self.resolve(&conn, env, bindings, path, *line)?;
                    self.wired_ors.push(bound.name);
                }
                Stmt::Prim {
                    kind,
                    attrs,
                    inputs,
                    outputs,
                    line,
                } => {
                    let n = next_ordinal(&mut ordinals, kind);
                    self.prim_stmt(kind, attrs, inputs, outputs, env, bindings, path, n, *line)?;
                }
                Stmt::Use {
                    name,
                    attrs,
                    inputs,
                    outputs,
                    line,
                } => {
                    let n = next_ordinal(&mut ordinals, name);
                    self.use_stmt(
                        name, attrs, inputs, outputs, env, bindings, path, depth, n, *line,
                    )?;
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn use_stmt(
        &mut self,
        name: &str,
        attrs: &[(String, AttrVal)],
        inputs: &[ConnExpr],
        outputs: &[ConnExpr],
        env: &Env,
        bindings: &HashMap<String, Bound>,
        path: &str,
        depth: usize,
        ordinal: usize,
        line: u32,
    ) -> Result<(), HdlError> {
        let mac = self
            .design
            .find_macro(name)
            .ok_or_else(|| HdlError::Expand {
                message: format!("unknown macro {name:?}"),
                line,
            })?;
        self.instances += 1;
        let inst_path = format!("{path}/{}#{ordinal}", mac.name);

        // Parameter environment: defaults, then call-site overrides.
        let mut callee_env = Env::new();
        for (p, default) in &mac.params {
            if let Some(d) = default {
                callee_env.insert(p.clone(), *d);
            }
        }
        for (key, val) in attrs {
            if !mac.params.iter().any(|(p, _)| p == key) {
                return self.err(line, format!("macro {name:?} has no parameter {key:?}"));
            }
            let AttrVal::Num(n) = val else {
                return self.err(line, format!("parameter {key:?} must be a number"));
            };
            if n.fract() != 0.0 {
                return self.err(line, format!("parameter {key:?} must be an integer"));
            }
            callee_env.insert(key.clone(), *n as i64);
        }
        for (p, _) in &mac.params {
            if !callee_env.contains_key(p) {
                return self.err(line, format!("macro {name:?} parameter {p:?} has no value"));
            }
        }

        if mac.inputs.len() != inputs.len() || mac.outputs.len() != outputs.len() {
            return self.err(
                line,
                format!(
                    "macro {name:?} expects {} input(s) and {} output(s), \
                     found {} and {}",
                    mac.inputs.len(),
                    mac.outputs.len(),
                    inputs.len(),
                    outputs.len()
                ),
            );
        }

        // Bind formals to resolved actuals, unifying the actual's width
        // with the formal port's declared width.
        let mut callee_bindings = HashMap::new();
        for (port, actual) in mac
            .inputs
            .iter()
            .chain(&mac.outputs)
            .zip(inputs.iter().chain(outputs))
        {
            let bound = self.resolve(actual, env, bindings, path, line)?;
            let port_width = range_width(&port.range, &callee_env)
                .map_err(|m| HdlError::Expand { message: m, line })?;
            let (flat_base, _) = split(&bound.name, line)?;
            let entry = self.widths.entry(flat_base.clone()).or_insert(None);
            match *entry {
                None => *entry = Some(port_width),
                Some(w) if w == port_width => {}
                Some(w) => {
                    return self.err(
                        line,
                        format!(
                            "signal {flat_base:?} (width {w}) connected to port \
                             {:?} of {name:?} (width {port_width})",
                            port.name
                        ),
                    )
                }
            }
            let (port_base, port_assertion) = split(&port.name, mac.line)?;
            if port_assertion.is_some() {
                return self.err(
                    mac.line,
                    format!("macro port {:?} cannot carry an assertion", port.name),
                );
            }
            callee_bindings.insert(port_base, bound);
        }

        self.block(
            &mac.body,
            &callee_env,
            &callee_bindings,
            &inst_path,
            depth + 1,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn prim_stmt(
        &mut self,
        kind: &str,
        attrs: &[(String, AttrVal)],
        inputs: &[ConnExpr],
        outputs: &[ConnExpr],
        env: &Env,
        bindings: &HashMap<String, Bound>,
        path: &str,
        ordinal: usize,
        line: u32,
    ) -> Result<(), HdlError> {
        let attr = |name: &str| -> Option<AttrVal> {
            attrs.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
        };
        let num_attr = |name: &str, default: f64| -> Result<f64, HdlError> {
            match attr(name) {
                None => Ok(default),
                Some(AttrVal::Num(n)) => Ok(n),
                Some(AttrVal::Range(..)) => Err(HdlError::Expand {
                    message: format!("attribute {name:?} must be a single number"),
                    line,
                }),
            }
        };
        let delay = match attr("delay") {
            None => DelayRange::ZERO,
            Some(AttrVal::Range(a, b)) => DelayRange::from_ns(a, b),
            Some(AttrVal::Num(n)) => DelayRange::from_ns(n, n),
        };
        // §4.2.2 extension: `rise=`/`fall=` on buffers and inverters give
        // separate edge delays.
        let range_attr = |name: &str| -> Result<Option<DelayRange>, HdlError> {
            match attr(name) {
                None => Ok(None),
                Some(AttrVal::Range(a, b)) => Ok(Some(DelayRange::from_ns(a, b))),
                Some(AttrVal::Num(n)) => Ok(Some(DelayRange::from_ns(n, n))),
            }
        };
        let edge_delays = match (range_attr("rise")?, range_attr("fall")?) {
            (None, None) => None,
            (rise, fall) => {
                if !matches!(kind, "not" | "buf") {
                    return self.err(
                        line,
                        format!("rise/fall delays are only supported on not/buf, not {kind:?}"),
                    );
                }
                let base = delay;
                Some(scald_netlist::EdgeDelays {
                    rise: rise.unwrap_or(base),
                    fall: fall.unwrap_or(base),
                })
            }
        };

        let prim_kind = match kind {
            "and" => PrimKind::And,
            "or" => PrimKind::Or,
            "nand" => PrimKind::Nand,
            "nor" => PrimKind::Nor,
            "xor" => PrimKind::Xor,
            "xnor" => PrimKind::Xnor,
            "not" => PrimKind::Not,
            "buf" => PrimKind::Buf,
            "chg" => PrimKind::Chg,
            "delay" => PrimKind::Delay,
            "const0" => PrimKind::Const(Value::Zero),
            "const1" => PrimKind::Const(Value::One),
            "mux" => PrimKind::Mux {
                data: u32::try_from(inputs.len().saturating_sub(1)).unwrap_or(0),
            },
            "reg" => PrimKind::Reg { set_reset: false },
            "reg_sr" => PrimKind::Reg { set_reset: true },
            "latch" => PrimKind::Latch { set_reset: false },
            "latch_sr" => PrimKind::Latch { set_reset: true },
            "setup_hold" => PrimKind::SetupHold {
                setup: Time::from_ns(num_attr("setup", 0.0)?),
                hold: Time::from_ns(num_attr("hold", 0.0)?),
            },
            "setup_rise_hold_fall" => PrimKind::SetupRiseHoldFall {
                setup: Time::from_ns(num_attr("setup", 0.0)?),
                hold: Time::from_ns(num_attr("hold", 0.0)?),
            },
            "min_pulse_width" => PrimKind::MinPulseWidth {
                high: Time::from_ns(num_attr("high", 0.0)?),
                low: Time::from_ns(num_attr("low", 0.0)?),
            },
            other => return self.err(line, format!("unknown primitive {other:?}")),
        };

        if prim_kind.has_output() && outputs.len() != 1 {
            return self.err(
                line,
                format!("primitive {kind:?} must drive exactly one output"),
            );
        }
        if !prim_kind.has_output() && !outputs.is_empty() {
            return self.err(line, format!("checker {kind:?} cannot drive an output"));
        }

        self.prims += 1;
        let inst_name = format!("{path}/{kind}#{ordinal}");

        let mut conns = Vec::with_capacity(inputs.len());
        for c in inputs {
            let bound = self.resolve(c, env, bindings, path, line)?;
            conns.push((bound, line));
        }
        let out_bound = match outputs.first() {
            Some(c) => Some(self.resolve(c, env, bindings, path, line)?),
            None => None,
        };
        if let Some(b) = &out_bound {
            if b.invert {
                return self.err(line, "outputs cannot be complemented; invert the input");
            }
        }

        if self.builder.is_some() {
            let mut netlist_conns = Vec::with_capacity(conns.len());
            for (bound, line) in &conns {
                let conn = self
                    .emit_conn(bound, *line)?
                    .expect("builder present in pass 2");
                netlist_conns.push(conn);
            }
            let out_sid = match &out_bound {
                Some(b) => {
                    let conn = self.emit_conn(b, line)?.expect("builder present");
                    Some(conn.signal)
                }
                None => None,
            };
            let builder = self.builder.as_deref_mut().expect("builder present");
            match edge_delays {
                Some(ed) if prim_kind == PrimKind::Not => {
                    let out = out_sid.expect("not has an output");
                    builder.not_asym(
                        inst_name,
                        ed.rise,
                        ed.fall,
                        netlist_conns.into_iter().next().expect("one input"),
                        out,
                    );
                }
                Some(ed) => {
                    let out = out_sid.expect("buf has an output");
                    builder.buf_asym(
                        inst_name,
                        ed.rise,
                        ed.fall,
                        netlist_conns.into_iter().next().expect("one input"),
                        out,
                    );
                }
                None => builder.prim(inst_name, prim_kind, delay, netlist_conns, out_sid),
            }
        }
        Ok(())
    }
}
