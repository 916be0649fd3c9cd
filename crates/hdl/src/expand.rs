//! The two-pass macro expander (§3.3.2, Table 3-1).
//!
//! Pass 1 walks the design hierarchy once. It resolves names — binding
//! actual signals to macro ports and scoping `/M` locals to their instance
//! path — and unifies the bit widths of every reference to each flat
//! signal (the "synonym" resolution of the SCALD Macro Expander's first
//! pass). It also records each primitive it meets: kind, delays and
//! connections, as indices into the flat-signal table. Pass 2 emits the
//! recorded primitives, in walk order, into a [`NetlistBuilder`] and
//! validates the netlist for the Timing Verifier; it does not walk the
//! hierarchy again. The two passes are timed separately so the Table 3-1
//! statistics can be regenerated.
//!
//! No name is split more than once. Before the walk, [`Index`] splits
//! every distinct name text of the design into its base and assertion and
//! indexes each statement's references against those texts, their macro
//! port (if any) and their ordinal. The walker interns flat signals — a
//! global's base, or a local's `{instance path}/{base}` — into one table
//! of names and unified widths, so a recorded reference is a flat-signal
//! index plus the assertion, inversion and directive it carries.
//!
//! Every walk error comes before every netlist error, and netlist errors
//! come in emission order, because nothing reaches the builder until the
//! walk has finished.

use scald_assertions::{parse_signal_name, Assertion};
use scald_logic::Value;
use scald_netlist::{
    Config, Conn, EdgeDelays, Netlist, NetlistBuilder, NetlistError, PrimKind, Primitive, SignalId,
};
use scald_wave::{DelayRange, Skew, Time};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use crate::ast::{range_width, AttrVal, ConnExpr, Design, Env, ScopeMark, Stmt};
use crate::parser::{parse, ParseError};

/// Maximum macro nesting depth before the expander assumes recursion.
const MAX_DEPTH: usize = 64;

/// Errors from parsing or expansion.
#[derive(Debug)]
pub enum HdlError {
    /// Lexical or syntactic error.
    Parse(ParseError),
    /// Semantic error during expansion.
    Expand {
        /// Explanation.
        message: String,
        /// Source line of the offending statement.
        line: u32,
    },
    /// The emitted netlist failed validation.
    Netlist(NetlistError),
}

impl fmt::Display for HdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdlError::Parse(e) => write!(f, "parse error: {e}"),
            HdlError::Expand { message, line } => {
                write!(f, "expansion error at line {line}: {message}")
            }
            HdlError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for HdlError {}

impl From<ParseError> for HdlError {
    fn from(e: ParseError) -> HdlError {
        HdlError::Parse(e)
    }
}

impl From<NetlistError> for HdlError {
    fn from(e: NetlistError) -> HdlError {
        HdlError::Netlist(e)
    }
}

/// Execution statistics for the expansion, mirroring the phases of
/// Table 3-1.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpandStats {
    /// Macros defined in the library.
    pub macros_defined: usize,
    /// Macro instances expanded (all levels).
    pub instances_expanded: usize,
    /// Primitives emitted into the netlist.
    pub prims_emitted: usize,
    /// Distinct signals in the flattened design.
    pub signals: usize,
    /// Wall time of Pass 1 (name/width resolution).
    pub pass1: Duration,
    /// Wall time of Pass 2 (primitive emission).
    pub pass2: Duration,
}

/// A fully expanded design: the flat netlist plus the case-analysis
/// specifications and expansion statistics.
#[derive(Debug)]
pub struct Expansion {
    /// The validated flat netlist.
    pub netlist: Netlist,
    /// Case-analysis assignments from `case …;` statements (§2.7.1).
    pub cases: Vec<Vec<(String, bool)>>,
    /// Phase statistics (Table 3-1).
    pub stats: ExpandStats,
}

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

    // Pass 1: resolve names, unify widths and record the primitives.
    let t1 = Instant::now();
    let index = Index::new(design);
    let mut walker = Walker::new(design, &index);
    let mut top = Frame {
        env: &Env::new(),
        bindings: &[],
        path: 0,
        locals: HashMap::new(),
    };
    walker.block(&index.top, &design.top, &mut top, 0)?;
    let instances = walker.instances;
    let mut record = walker.record;
    // The record lives through emission, beside the netlist being built:
    // give back its growth slack first.
    record.prims.shrink_to_fit();
    record.conns.shrink_to_fit();
    let prims = record.prims.len();
    // Emission needs only the assertions and directives; the split names
    // and block indexes go before the netlist is built.
    let Index {
        assertions,
        directives,
        ..
    } = index;
    let pass1_time = t1.elapsed();

    // Pass 2: emit the recorded primitives and validate.
    let t2 = Instant::now();
    let builder = record.emit(config, &assertions, &directives)?;
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

/// Marks an absent index in the compact `u32` index fields below.
const NONE: u32 = u32::MAX;

fn expand_err(message: impl Into<String>, line: u32) -> HdlError {
    HdlError::Expand {
        message: message.into(),
        line,
    }
}

/// A name text split into its base and optional assertion.
struct SplitName {
    base: String,
    /// Index into [`Index::assertions`], or [`NONE`].
    assertion: u32,
}

/// One reference of a statement, indexed before the walk.
#[derive(Clone, Copy)]
struct RefIndex {
    /// The reference's name text, as an index into [`Index::names`].
    name: u32,
    /// The port of the enclosing macro that the reference's base names
    /// (its binding slot), or [`NONE`].
    port: u32,
    /// The reference's `&`-directive, as an index into
    /// [`Index::directives`], or [`NONE`].
    directive: u32,
}

/// The statements of one block (the top level or a macro body).
#[derive(Default)]
struct BlockIndex {
    /// Per statement: its ordinal among the block's statements of the same
    /// kind or macro name, and its first entry in `refs`.
    stmts: Vec<(u32, u32)>,
    /// Every reference of the block in statement order: a signal
    /// declaration's, wire delay's or wired-OR's name, or a primitive's or
    /// macro instance's inputs then outputs.
    refs: Vec<RefIndex>,
}

/// A macro definition, indexed before the walk.
struct MacroIndex {
    /// Port name texts, inputs then outputs.
    ports: Vec<u32>,
    body: BlockIndex,
}

/// Everything about the design that does not depend on the instance:
/// each distinct name text split once, and each block's references.
struct Index<'a> {
    /// Per distinct name text: the split name, or the split's error.
    names: Vec<Result<SplitName, String>>,
    /// The assertions of the name texts that carry one.
    assertions: Vec<Assertion>,
    /// The `&`-directives of the design's references.
    directives: Vec<&'a str>,
    top: BlockIndex,
    /// Parallel to `Design::macros`.
    macros: Vec<MacroIndex>,
    /// Macro name to its first definition.
    macro_ids: HashMap<&'a str, usize>,
}

impl<'a> Index<'a> {
    fn new(design: &'a Design) -> Index<'a> {
        let mut texts = Texts::default();
        let mut macro_ids = HashMap::new();
        let macros = design
            .macros
            .iter()
            .enumerate()
            .map(|(m, mac)| {
                macro_ids.entry(mac.name.as_str()).or_insert(m);
                let ports: Vec<u32> = mac
                    .inputs
                    .iter()
                    .chain(&mac.outputs)
                    .map(|p| texts.id(&p.name))
                    .collect();
                // Binding slots by base; a later port of the same base wins.
                let mut slots = HashMap::new();
                for (slot, &text) in ports.iter().enumerate() {
                    if let Ok(split) = &texts.names[text as usize] {
                        slots.insert(split.base.clone(), slot as u32);
                    }
                }
                let body = texts.block(&mac.body, &slots);
                MacroIndex { ports, body }
            })
            .collect();
        let top = texts.block(&design.top, &HashMap::new());
        Index {
            names: texts.names,
            assertions: texts.assertions,
            directives: texts.directives,
            top,
            macros,
            macro_ids,
        }
    }

    fn name(&self, text: u32, line: u32) -> Result<&SplitName, HdlError> {
        self.names[text as usize]
            .as_ref()
            .map_err(|message| expand_err(message.clone(), line))
    }
}

/// Interns name texts, and collects directives, while the [`Index`] is
/// built.
#[derive(Default)]
struct Texts<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<Result<SplitName, String>>,
    assertions: Vec<Assertion>,
    directives: Vec<&'a str>,
}

impl<'a> Texts<'a> {
    fn id(&mut self, text: &'a str) -> u32 {
        let (names, assertions) = (&mut self.names, &mut self.assertions);
        *self.ids.entry(text).or_insert_with(|| {
            let split = parse_signal_name(text).map(|(base, assertion)| SplitName {
                base,
                assertion: assertion.map_or(NONE, |a| {
                    assertions.push(a);
                    (assertions.len() - 1) as u32
                }),
            });
            names.push(split.map_err(|e| e.to_string()));
            (names.len() - 1) as u32
        })
    }

    fn block(&mut self, stmts: &'a [Stmt], slots: &HashMap<String, u32>) -> BlockIndex {
        let mut index = BlockIndex::default();
        let mut ordinals: HashMap<&str, u32> = HashMap::new();
        for stmt in stmts {
            let ordinal = match stmt {
                // Instance names are `{path}/{kind-or-macro}#{n}` where `n`
                // counts same-named statements *within this block only*. A
                // statement's generated name therefore depends only on the
                // statements above it in its own body — editing one macro
                // body never renames primitives expanded from another, which
                // is what lets incremental re-verification (`scald-incr`)
                // match survivors across a re-expansion.
                Stmt::Prim { kind: key, .. } | Stmt::Use { name: key, .. } => {
                    let n = ordinals.entry(key).or_insert(0);
                    *n += 1;
                    *n
                }
                _ => 0,
            };
            index.stmts.push((ordinal, index.refs.len() as u32));
            let mut push = |name, directive| {
                let at = self.reference(name, directive, slots);
                index.refs.push(at);
            };
            match stmt {
                Stmt::SignalDecl { conn, .. } => push(&conn.name, conn.directive.as_deref()),
                Stmt::WireDelay { name, .. } | Stmt::WiredOr { name, .. } => push(name, None),
                Stmt::Prim {
                    inputs, outputs, ..
                }
                | Stmt::Use {
                    inputs, outputs, ..
                } => {
                    for conn in inputs.iter().chain(outputs) {
                        push(&conn.name, conn.directive.as_deref());
                    }
                }
            }
        }
        index
    }

    /// Indexes one reference: its name text, the port slot its base names
    /// (if any) and its directive.
    fn reference(
        &mut self,
        name: &'a str,
        directive: Option<&'a str>,
        slots: &HashMap<String, u32>,
    ) -> RefIndex {
        let name = self.id(name);
        let port = match &self.names[name as usize] {
            Ok(split) => slots.get(&split.base).copied().unwrap_or(NONE),
            Err(_) => NONE,
        };
        let directive = directive.map_or(NONE, |d| {
            self.directives.push(d);
            (self.directives.len() - 1) as u32
        });
        RefIndex {
            name,
            port,
            directive,
        }
    }
}

/// A signal reference resolved to its flat signal.
#[derive(Debug, Clone, Copy)]
struct Bound {
    /// Index into the flat-signal table.
    flat: u32,
    /// The assertion the reference carries, as an index into
    /// [`Index::assertions`], or [`NONE`].
    asserted: u32,
    /// Index into [`Index::directives`], or [`NONE`].
    directive: u32,
    invert: bool,
}

/// One macro instance (or the top level) being expanded.
struct Frame<'f> {
    env: &'f Env,
    /// The actuals bound to the macro's ports, by port slot.
    bindings: &'f [Bound],
    /// Index into [`Record::paths`].
    path: u32,
    /// `/M` locals resolved so far: name text to flat signal.
    locals: HashMap<u32, u32>,
}

/// A primitive recorded by Pass 1 for Pass 2 to emit.
struct PrimRecord<'a> {
    /// Instance path, keyword and ordinal: the primitive's name is
    /// `{path}/{keyword}#{ordinal}`. (`&String` is one word; the record is
    /// kept small.)
    path: u32,
    ordinal: u32,
    keyword: &'a String,
    kind: PrimKind,
    delay: DelayRange,
    /// Rare (`rise=`/`fall=` on `not`/`buf`), so boxed.
    edge_delays: Option<Box<EdgeDelays>>,
    /// First connection in [`Record::conns`]: the inputs, then the output
    /// if the kind has one.
    first: u32,
    inputs: u32,
}

/// A signal reference with no range, scope or directive: the operand of
/// `wire_delay` and `wired_or`.
static PLAIN: ConnExpr = ConnExpr {
    invert: false,
    name: String::new(),
    range: None,
    scope: None,
    directive: None,
};

/// What Pass 1 leaves for Pass 2: the flat-signal table and the
/// primitives, wire delays and wired-OR marks in walk order.
struct Record<'a> {
    /// Flat signal name to its index.
    flat_ids: HashMap<String, u32>,
    /// Unified width per flat signal (`None` = not yet constrained).
    widths: Vec<Option<u32>>,
    /// Instance paths; index 0 is `TOP`.
    paths: Vec<String>,
    prims: Vec<PrimRecord<'a>>,
    conns: Vec<Bound>,
    wire_delays: Vec<(u32, f64, f64)>,
    wired_ors: Vec<u32>,
}

struct Walker<'a, 'i> {
    design: &'a Design,
    index: &'i Index<'a>,
    record: Record<'a>,
    /// Per name text: the flat signal it names as a global, or [`NONE`].
    globals: Vec<u32>,
    /// Per instance path: some macro name on it reads like an assertion.
    odd_paths: Vec<bool>,
    instances: usize,
}

impl<'a, 'i> Walker<'a, 'i> {
    fn new(design: &'a Design, index: &'i Index<'a>) -> Walker<'a, 'i> {
        Walker {
            design,
            index,
            record: Record {
                flat_ids: HashMap::new(),
                widths: Vec::new(),
                paths: vec!["TOP".to_owned()],
                prims: Vec::new(),
                conns: Vec::new(),
                wire_delays: Vec::new(),
                wired_ors: Vec::new(),
            },
            globals: vec![NONE; index.names.len()],
            odd_paths: vec![false],
            instances: 0,
        }
    }

    fn err<T>(&self, line: u32, message: impl Into<String>) -> Result<T, HdlError> {
        Err(expand_err(message, line))
    }

    /// The flat signal named `name`, interned on first sight.
    fn intern(&mut self, name: String) -> u32 {
        let record = &mut self.record;
        *record.flat_ids.entry(name).or_insert_with(|| {
            record.widths.push(None);
            (record.widths.len() - 1) as u32
        })
    }

    /// The name of a flat signal, for diagnostics.
    fn flat_name(&self, flat: u32) -> &str {
        self.record
            .flat_ids
            .iter()
            .find(|&(_, &f)| f == flat)
            .map_or("", |(name, _)| name)
    }

    /// Resolves a connection reference in the current instance.
    fn resolve(
        &mut self,
        frame: &mut Frame<'_>,
        at: RefIndex,
        conn: &ConnExpr,
        line: u32,
    ) -> Result<Bound, HdlError> {
        let name = self.index.name(at.name, line)?;
        let width = match &conn.range {
            Some(_) => Some(range_width(&conn.range, frame.env).map_err(|m| expand_err(m, line))?),
            None => None,
        };
        let asserted = name.assertion;
        let bound = if at.port != NONE {
            if asserted != NONE {
                return self.err(
                    line,
                    format!(
                        "macro port reference {:?} cannot carry an assertion",
                        name.base
                    ),
                );
            }
            let actual = frame.bindings[at.port as usize];
            Bound {
                flat: actual.flat,
                asserted: actual.asserted,
                invert: conn.invert ^ actual.invert,
                directive: if at.directive != NONE {
                    at.directive
                } else {
                    actual.directive
                },
            }
        } else {
            let flat = if conn.scope == Some(ScopeMark::Local) {
                self.local(frame, at.name, &name.base, asserted, line)?
            } else if self.globals[at.name as usize] != NONE {
                self.globals[at.name as usize]
            } else {
                let flat = self.intern(name.base.clone());
                self.globals[at.name as usize] = flat;
                flat
            };
            Bound {
                flat,
                asserted,
                invert: conn.invert,
                directive: at.directive,
            }
        };
        // Unify widths on the flat signal.
        let entry = &mut self.record.widths[bound.flat as usize];
        match (*entry, width) {
            (None, w) => *entry = w,
            (Some(_), None) => {}
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => {
                let flat_base = self.flat_name(bound.flat);
                return self.err(
                    line,
                    format!("signal {flat_base:?} used with widths {a} and {b}"),
                );
            }
        }
        Ok(bound)
    }

    /// The flat signal `{path}/{base}` of a `/M` local.
    fn local(
        &mut self,
        frame: &mut Frame<'_>,
        text: u32,
        base: &str,
        asserted: u32,
        line: u32,
    ) -> Result<u32, HdlError> {
        if let Some(&flat) = frame.locals.get(&text) {
            return Ok(flat);
        }
        let path = frame.path as usize;
        let flat_name = format!("{}/{base}", self.record.paths[path]);
        // A flat name is `{path}/{base}`, and a signal's full name is its
        // flat name plus the assertion suffix: it must split back into the
        // same parts. That fails only for a plain local under a macro whose
        // name reads like an assertion (`'X .P1'`): the full name then
        // ends in a malformed suffix, which is the diagnostic.
        if asserted == NONE && self.odd_paths[path] {
            if let Err(e) = parse_signal_name(&flat_name) {
                return self.err(line, e.to_string());
            }
        }
        let flat = self.intern(flat_name);
        frame.locals.insert(text, flat);
        Ok(flat)
    }

    fn block(
        &mut self,
        index: &'i BlockIndex,
        stmts: &'a [Stmt],
        frame: &mut Frame<'_>,
        depth: usize,
    ) -> Result<(), HdlError> {
        if depth > MAX_DEPTH {
            return self.err(
                0,
                format!("macro nesting exceeds {MAX_DEPTH} levels; recursive macro?"),
            );
        }
        for (stmt, &(ordinal, first)) in stmts.iter().zip(&index.stmts) {
            let refs = &index.refs[first as usize..];
            match stmt {
                Stmt::SignalDecl { conn, line } => {
                    self.resolve(frame, refs[0], conn, *line)?;
                }
                Stmt::WireDelay { min, max, line, .. } => {
                    let bound = self.resolve(frame, refs[0], &PLAIN, *line)?;
                    self.record.wire_delays.push((bound.flat, *min, *max));
                }
                Stmt::WiredOr { line, .. } => {
                    let bound = self.resolve(frame, refs[0], &PLAIN, *line)?;
                    self.record.wired_ors.push(bound.flat);
                }
                Stmt::Prim {
                    kind: keyword,
                    attrs,
                    inputs,
                    outputs,
                    line,
                }
                | Stmt::Use {
                    name: keyword,
                    attrs,
                    inputs,
                    outputs,
                    line,
                } => {
                    let call = Call {
                        keyword,
                        attrs,
                        inputs,
                        outputs,
                        refs,
                        ordinal,
                        line: *line,
                    };
                    if matches!(stmt, Stmt::Prim { .. }) {
                        self.prim_stmt(&call, frame)?;
                    } else {
                        self.use_stmt(&call, frame, depth)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn use_stmt(
        &mut self,
        stmt: &Call<'a, 'i>,
        frame: &mut Frame<'_>,
        depth: usize,
    ) -> Result<(), HdlError> {
        let Call {
            keyword: name,
            attrs,
            inputs,
            outputs,
            line,
            ..
        } = *stmt;
        let Some(&m) = self.index.macro_ids.get(name.as_str()) else {
            return self.err(line, format!("unknown macro {name:?}"));
        };
        let (mac, mac_index) = (&self.design.macros[m], &self.index.macros[m]);
        self.instances += 1;
        let path = self.record.paths.len() as u32;
        let inst_path = format!(
            "{}/{}#{}",
            self.record.paths[frame.path as usize], mac.name, stmt.ordinal
        );
        self.record.paths.push(inst_path);
        let odd = self.odd_paths[frame.path as usize] || reads_like_assertion(&mac.name);
        self.odd_paths.push(odd);

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
        let mut bindings = Vec::with_capacity(mac_index.ports.len());
        for (slot, (port, actual)) in mac
            .inputs
            .iter()
            .chain(&mac.outputs)
            .zip(inputs.iter().chain(outputs))
            .enumerate()
        {
            let bound = self.resolve(frame, stmt.refs[slot], actual, line)?;
            let port_width =
                range_width(&port.range, &callee_env).map_err(|m| expand_err(m, line))?;
            let entry = &mut self.record.widths[bound.flat as usize];
            match *entry {
                None => *entry = Some(port_width),
                Some(w) if w == port_width => {}
                Some(w) => {
                    let flat_base = self.flat_name(bound.flat);
                    return self.err(
                        line,
                        format!(
                            "signal {flat_base:?} (width {w}) connected to port \
                             {:?} of {name:?} (width {port_width})",
                            port.name
                        ),
                    );
                }
            }
            let port_name = self.index.name(mac_index.ports[slot], mac.line)?;
            if port_name.assertion != NONE {
                return self.err(
                    mac.line,
                    format!("macro port {:?} cannot carry an assertion", port.name),
                );
            }
            bindings.push(bound);
        }

        let mut callee = Frame {
            env: &callee_env,
            bindings: &bindings,
            path,
            locals: HashMap::new(),
        };
        self.block(&mac_index.body, &mac.body, &mut callee, depth + 1)
    }

    fn prim_stmt(&mut self, stmt: &Call<'a, 'i>, frame: &mut Frame<'_>) -> Result<(), HdlError> {
        let Call {
            keyword: kind,
            attrs,
            inputs,
            outputs,
            line,
            ..
        } = *stmt;
        let attr = |name: &str| -> Option<AttrVal> {
            attrs.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
        };
        let num_attr = |name: &str, default: f64| -> Result<f64, HdlError> {
            match attr(name) {
                None => Ok(default),
                Some(AttrVal::Num(n)) => Ok(n),
                Some(AttrVal::Range(..)) => Err(expand_err(
                    format!("attribute {name:?} must be a single number"),
                    line,
                )),
            }
        };
        let range_attr = |name: &str| -> Option<DelayRange> {
            match attr(name)? {
                AttrVal::Range(a, b) => Some(DelayRange::from_ns(a, b)),
                AttrVal::Num(n) => Some(DelayRange::from_ns(n, n)),
            }
        };
        let delay = range_attr("delay").unwrap_or(DelayRange::ZERO);
        // §4.2.2 extension: `rise=`/`fall=` on buffers and inverters give
        // separate edge delays.
        let edge_delays = match (range_attr("rise"), range_attr("fall")) {
            (None, None) => None,
            (rise, fall) => {
                if !matches!(kind.as_str(), "not" | "buf") {
                    return self.err(
                        line,
                        format!("rise/fall delays are only supported on not/buf, not {kind:?}"),
                    );
                }
                Some(EdgeDelays {
                    rise: rise.unwrap_or(delay),
                    fall: fall.unwrap_or(delay),
                })
            }
        };

        let prim_kind = match kind.as_str() {
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

        let first = self.record.conns.len() as u32;
        for (k, c) in inputs.iter().enumerate() {
            let bound = self.resolve(frame, stmt.refs[k], c, line)?;
            self.record.conns.push(bound);
        }
        if let Some(c) = outputs.first() {
            let bound = self.resolve(frame, stmt.refs[inputs.len()], c, line)?;
            if bound.invert {
                return self.err(line, "outputs cannot be complemented; invert the input");
            }
            self.record.conns.push(bound);
        }
        self.record.prims.push(PrimRecord {
            path: frame.path,
            ordinal: stmt.ordinal,
            keyword: kind,
            kind: prim_kind,
            delay,
            edge_delays: edge_delays.map(Box::new),
            first,
            inputs: inputs.len() as u32,
        });
        Ok(())
    }
}

impl<'a> Record<'a> {
    /// Pass 2: emits the recorded primitives, wire delays and wired-OR
    /// marks into a [`NetlistBuilder`], in walk order.
    fn emit(
        self,
        config: Config,
        assertions: &[Assertion],
        directives: &[&str],
    ) -> Result<NetlistBuilder, HdlError> {
        let mut names = vec![String::new(); self.widths.len()];
        for (name, flat) in self.flat_ids {
            names[flat as usize] = name;
        }
        let mut emitter = Emitter {
            assertions,
            builder: NetlistBuilder::with_capacity(config, names.len(), self.prims.len()),
            declared: vec![None; names.len()],
            names,
            widths: self.widths,
        };
        for p in &self.prims {
            let conns = &self.conns[p.first as usize..];
            let mut inputs = Vec::with_capacity(p.inputs as usize);
            for bound in &conns[..p.inputs as usize] {
                inputs.push(Conn {
                    signal: emitter.signal(bound)?,
                    invert: bound.invert,
                    directive: directives
                        .get(bound.directive as usize)
                        .map(|&d| d.to_owned()),
                    wire_delay: None,
                });
            }
            let output = if p.kind.has_output() {
                Some(emitter.signal(&conns[p.inputs as usize])?)
            } else {
                None
            };
            let name = format!(
                "{}/{}#{}",
                self.paths[p.path as usize], p.keyword, p.ordinal
            );
            emitter.builder.push_prim(Primitive {
                name,
                kind: p.kind,
                delay: p.edge_delays.as_ref().map_or(p.delay, |ed| ed.envelope()),
                edge_delays: p.edge_delays.as_deref().copied(),
                inputs,
                output,
            });
        }
        // Apply per-signal wire-delay overrides (§2.5.3).
        for &(flat, min, max) in &self.wire_delays {
            let sid = emitter.by_name(flat)?;
            emitter
                .builder
                .set_wire_delay(sid, DelayRange::from_ns(min, max));
        }
        for &flat in &self.wired_ors {
            let sid = emitter.by_name(flat)?;
            emitter.builder.mark_wired_or(sid);
        }
        Ok(emitter.builder)
    }
}

/// The parts of a primitive or macro-instance statement the walker reads.
struct Call<'a, 'i> {
    /// Primitive kind or macro name.
    keyword: &'a String,
    attrs: &'a [(String, AttrVal)],
    inputs: &'a [ConnExpr],
    outputs: &'a [ConnExpr],
    /// The statement's references, inputs then outputs.
    refs: &'i [RefIndex],
    ordinal: u32,
    line: u32,
}

/// Whether `name` contains ` .P`, ` .C` or ` .S`, the start of an
/// assertion suffix.
fn reads_like_assertion(name: &str) -> bool {
    name.as_bytes()
        .windows(3)
        .any(|w| w[0] == b' ' && w[1] == b'.' && matches!(w[2], b'P' | b'C' | b'S'))
}

/// Pass 2's state: the builder and, per flat signal, its netlist id.
struct Emitter<'a> {
    /// [`Index::assertions`].
    assertions: &'a [Assertion],
    builder: NetlistBuilder,
    names: Vec<String>,
    widths: Vec<Option<u32>>,
    /// Per flat signal once declared: its id, and the assertion the
    /// builder saw last (or [`NONE`]).
    declared: Vec<Option<(SignalId, u32)>>,
}

impl Emitter<'_> {
    /// The netlist signal of a reference. The builder checks every
    /// reference that could change or contradict what it holds; a
    /// reference with no assertion, or the one it saw last, is a no-op
    /// there and is answered from `declared`.
    fn signal(&mut self, bound: &Bound) -> Result<SignalId, NetlistError> {
        let flat = bound.flat as usize;
        if let Some((sid, seen)) = self.declared[flat] {
            if bound.asserted == NONE || bound.asserted == seen {
                return Ok(sid);
            }
        }
        let sid = self.builder.signal_parts(
            self.names[flat].clone(),
            self.assertions.get(bound.asserted as usize).cloned(),
            self.widths[flat].unwrap_or(1),
        )?;
        self.declared[flat] = Some((sid, bound.asserted));
        Ok(sid)
    }

    /// The netlist signal with a flat signal's name, declared as a scalar
    /// from the full name if no primitive connects it.
    fn by_name(&mut self, flat: u32) -> Result<SignalId, NetlistError> {
        let name = &self.names[flat as usize];
        match self.builder.find_signal(name) {
            Some(sid) => Ok(sid),
            None => self.builder.signal(name),
        }
    }
}
