//! ISCAS-85 / ISCAS-89 `.bench` reader and writer.
//!
//! The `.bench` dialect accepted here:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G10 = NAND(G1, G3)
//! G11 = DFF(G10)        # sequential; handled per ScanMode
//! ```
//!
//! Gate keywords are case-insensitive. `DFF` elements are converted to
//! full-scan pseudo-ports by default ([`ScanMode::FullScan`]): the flip-flop
//! output becomes a pseudo primary input and its data pin a pseudo primary
//! output, which is the standard combinational view used by scan-BIST test
//! point insertion.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use crate::{Circuit, GateKind, NetlistError, NodeId};

/// How to treat `DFF` elements while parsing.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Convert each `DFF` to a pseudo primary input (its output) and a
    /// pseudo primary output (its data input) — the full-scan view.
    #[default]
    FullScan,
    /// Reject netlists containing `DFF`s.
    Reject,
}

/// Parse `.bench` text with [`ScanMode::FullScan`] DFF handling.
///
/// # Errors
///
/// [`NetlistError::Parse`] on malformed lines,
/// [`NetlistError::UndefinedSignal`] / [`NetlistError::DuplicateName`] on
/// bad symbol usage, [`NetlistError::Cycle`] on cyclic combinational logic.
/// A name declared twice is reported before undefined names and cycles.
///
/// # Example
///
/// ```
/// use tpi_netlist::bench_format::parse_bench;
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nc = NAND(a, b)\nOUTPUT(c)\n")?;
/// assert_eq!(c.inputs().len(), 2);
/// assert_eq!(c.evaluate_outputs(&[true, true])?, [false]);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(text: &str) -> Result<Circuit, NetlistError> {
    parse_bench_with(text, "bench", ScanMode::FullScan)
}

/// Parse `.bench` text with an explicit circuit name and [`ScanMode`].
///
/// # Errors
///
/// See [`parse_bench`].
pub fn parse_bench_with(
    text: &str,
    name: &str,
    scan_mode: ScanMode,
) -> Result<Circuit, NetlistError> {
    enum Decl<'t> {
        Input,
        /// A gate kind and its argument range in `args`.
        Gate(GateKind, Range<usize>),
        Dff(&'t str),
    }
    let mut decls: Vec<(&str, Decl)> = Vec::new();
    let mut args: Vec<&str> = Vec::new();
    let mut output_names: Vec<&str> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let parse_err = |message: String| NetlistError::Parse {
            line: lineno,
            message,
        };
        if let Some(rest) = strip_keyword(line, "INPUT") {
            decls.push((parse_paren_arg(rest, lineno)?, Decl::Input));
        } else if let Some(rest) = strip_keyword(line, "OUTPUT") {
            output_names.push(parse_paren_arg(rest, lineno)?);
        } else if let Some(eq) = line.find('=') {
            // All slice indices come from `find`/`rfind`, so they sit on
            // char boundaries — but malformed input is exactly where
            // assumptions go to die, so slice fallibly and report a
            // parse error instead of ever panicking.
            let sliced = parse_err("malformed line (bad byte boundary)".into());
            let target = line.get(..eq).ok_or_else(|| sliced.clone())?.trim();
            if target.is_empty() {
                return Err(parse_err("missing target name before `=`".into()));
            }
            let rhs = line.get(eq + 1..).ok_or_else(|| sliced.clone())?.trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| parse_err(format!("expected GATE(...) after `=`, got `{rhs}`")))?;
            let close = rhs
                .rfind(')')
                .ok_or_else(|| parse_err("missing closing `)`".into()))?;
            if close < open {
                return Err(parse_err("mismatched parentheses".into()));
            }
            let keyword = rhs.get(..open).ok_or_else(|| sliced.clone())?.trim();
            let start = args.len();
            args.extend(
                rhs.get(open + 1..close)
                    .ok_or_else(|| sliced.clone())?
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty()),
            );
            let arity = args.len() - start;
            if keyword.eq_ignore_ascii_case("DFF") {
                if arity != 1 {
                    return Err(parse_err(format!("DFF takes 1 argument, got {arity}")));
                }
                match scan_mode {
                    ScanMode::FullScan => {
                        decls.push((target, Decl::Dff(args[start])));
                        args.truncate(start);
                    }
                    ScanMode::Reject => {
                        return Err(NetlistError::Sequential {
                            name: target.to_string(),
                        })
                    }
                }
            } else {
                let kind = GateKind::from_bench_name(keyword)
                    .ok_or_else(|| parse_err(format!("unknown gate keyword `{keyword}`")))?;
                kind.check_arity(arity)?;
                decls.push((target, Decl::Gate(kind, start..args.len())));
            }
        } else {
            return Err(parse_err(format!("unrecognised line `{line}`")));
        }
    }

    // Inputs and DFF outputs become nodes first, in declaration order;
    // the gates follow in dependency order (see `gate_order`).
    let mut circuit = Circuit::new(name);
    let mut signals: HashMap<&str, Signal> = HashMap::with_capacity(decls.len());
    let mut gates: Vec<PendingGate> = Vec::new();
    let mut scan_outputs: Vec<&str> = Vec::new();
    for (target, decl) in decls {
        match decl {
            Decl::Input | Decl::Dff(_) => {
                let Entry::Vacant(signal) = signals.entry(target) else {
                    return Err(NetlistError::DuplicateName {
                        name: target.to_string(),
                    });
                };
                let id = circuit.add_node_named(
                    GateKind::Input,
                    vec![],
                    target.to_string(),
                    |_, _| false,
                )?;
                signal.insert(Signal::Node(id));
                // Full scan: FF output is a pseudo-PI, its data input a
                // pseudo-PO.
                if let Decl::Dff(data_in) = decl {
                    scan_outputs.push(data_in);
                }
            }
            Decl::Gate(kind, range) => gates.push(PendingGate {
                target,
                kind,
                args: range,
            }),
        }
    }
    let mut table = GateTable::new(&gates, &args, &mut signals)?;
    let order = table.gate_order();

    let mut node_of: Vec<Option<NodeId>> = vec![None; gates.len()];
    for &g in &order {
        let gate = &gates[g];
        let fanins = table.refs[gate.args.clone()]
            .iter()
            .map(|r| match *r {
                Ref::Node(id) => id,
                Ref::Gate(d) => node_of[d].expect("a gate is ordered after its fanins"),
                Ref::Missing => unreachable!("a gate with an undefined fanin is never ordered"),
            })
            .collect();
        let id =
            circuit.add_node_named(gate.kind, fanins, gate.target.to_string(), |_, _| false)?;
        node_of[g] = Some(id);
    }
    if order.len() < gates.len() {
        // The first unordered gate in declaration order names the error:
        // its first argument still without a node is either undefined or
        // a gate that waits on a cycle.
        let gate = (0..gates.len())
            .find(|&g| table.waiting[g] > 0)
            .map(|g| &gates[g])
            .expect("some gate is unordered");
        let missing = gate
            .args
            .clone()
            .find(|&a| match table.refs[a] {
                Ref::Node(_) => false,
                Ref::Gate(d) => node_of[d].is_none(),
                Ref::Missing => true,
            })
            .expect("an unordered gate waits on some argument");
        return Err(match table.refs[missing] {
            Ref::Missing => NetlistError::UndefinedSignal {
                name: args[missing].to_string(),
            },
            _ => NetlistError::Cycle {
                node: gate.target.to_string(),
            },
        });
    }

    for &name in output_names.iter().chain(scan_outputs.iter()) {
        let id = match signals.get(name) {
            Some(Signal::Node(id)) => *id,
            Some(Signal::Gate(g)) => node_of[*g].expect("every gate was created"),
            None => {
                return Err(NetlistError::UndefinedSignal {
                    name: name.to_string(),
                })
            }
        };
        circuit.add_output(id)?;
    }
    circuit.validate()?;
    Ok(circuit)
}

/// What a signal name refers to while parsing.
#[derive(Copy, Clone)]
enum Signal {
    /// An input or DFF output, already a node.
    Node(NodeId),
    /// The target of a gate, by declaration index.
    Gate(usize),
}

/// A gate argument, resolved once.
#[derive(Copy, Clone)]
enum Ref {
    Node(NodeId),
    Gate(usize),
    /// A name nothing declares.
    Missing,
}

/// A declared gate: `target = kind(args[args])`.
struct PendingGate<'t> {
    target: &'t str,
    kind: GateKind,
    args: Range<usize>,
}

/// The gates of one `.bench` text, indexed by declaration order, with
/// their arguments resolved to inputs or to other gates.
struct GateTable {
    /// Resolution of every argument, parallel to the argument pool.
    refs: Vec<Ref>,
    /// The gates reading each gate, one entry per reading pin (CSR).
    reader_start: Vec<usize>,
    readers: Vec<u32>,
    /// Unresolved argument pins of each gate; an undefined argument keeps
    /// its gate waiting forever.
    waiting: Vec<u32>,
    /// The pass at which each resolved gate is created (see `gate_order`).
    pass: Vec<u32>,
}

impl GateTable {
    /// Name every gate target in `signals` and resolve the arguments.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] on the first gate, in declaration
    /// order, whose target is an input, a DFF output or an earlier gate's
    /// target.
    fn new<'t>(
        gates: &[PendingGate<'t>],
        args: &[&'t str],
        signals: &mut HashMap<&'t str, Signal>,
    ) -> Result<GateTable, NetlistError> {
        for (g, gate) in gates.iter().enumerate() {
            let Entry::Vacant(signal) = signals.entry(gate.target) else {
                return Err(NetlistError::DuplicateName {
                    name: gate.target.to_string(),
                });
            };
            signal.insert(Signal::Gate(g));
        }
        let refs: Vec<Ref> = args
            .iter()
            .map(|a| match signals.get(a) {
                Some(Signal::Node(id)) => Ref::Node(*id),
                Some(Signal::Gate(g)) => Ref::Gate(*g),
                None => Ref::Missing,
            })
            .collect();
        let n = gates.len();
        let mut reader_start = vec![0usize; n + 1];
        let mut waiting = vec![0u32; n];
        for (g, gate) in gates.iter().enumerate() {
            for r in &refs[gate.args.clone()] {
                match *r {
                    Ref::Node(_) => {}
                    Ref::Gate(d) => {
                        reader_start[d + 1] += 1;
                        waiting[g] += 1;
                    }
                    Ref::Missing => waiting[g] += 1,
                }
            }
        }
        for d in 0..n {
            reader_start[d + 1] += reader_start[d];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![0u32; reader_start[n]];
        for (g, gate) in gates.iter().enumerate() {
            for r in &refs[gate.args.clone()] {
                if let Ref::Gate(d) = *r {
                    readers[fill[d]] = g as u32;
                    fill[d] += 1;
                }
            }
        }
        Ok(GateTable {
            refs,
            reader_start,
            readers,
            waiting,
            pass: vec![1; n],
        })
    }

    /// The order in which a declaration-order worklist creates the gates:
    /// sweep the unresolved gates in declaration order, create each one
    /// whose arguments all exist, repeat until a sweep makes no progress.
    ///
    /// Gate `g` is created in sweep `p(g) = max(1, max over arguments a of
    /// p(a) + [a is declared after g])`, and a sweep creates its gates in
    /// declaration order, so the worklist order is the order by (pass,
    /// declaration index). Passes are computed in one dependency-order
    /// walk (Kahn's algorithm, no recursion) and the gates are then
    /// bucketed by pass: linear time, where the worklist takes one sweep
    /// per pass. Gates that wait on an undefined name or on a cycle are
    /// left out (their `waiting` count stays above 0).
    fn gate_order(&mut self) -> Vec<usize> {
        let n = self.pass.len();
        let mut ready: Vec<usize> = (0..n).filter(|&g| self.waiting[g] == 0).collect();
        while let Some(d) = ready.pop() {
            for &reader in &self.readers[self.reader_start[d]..self.reader_start[d + 1]] {
                let g = reader as usize;
                self.pass[g] = self.pass[g].max(self.pass[d] + u32::from(d > g));
                self.waiting[g] -= 1;
                if self.waiting[g] == 0 {
                    ready.push(g);
                }
            }
        }

        // Counting sort of the resolved gates by pass, stable, so that
        // declaration order holds within a pass.
        let resolved: Vec<usize> = (0..n).filter(|&g| self.waiting[g] == 0).collect();
        let passes = resolved.iter().map(|&g| self.pass[g] as usize).max();
        let mut start = vec![0usize; passes.unwrap_or(0) + 2];
        for &g in &resolved {
            start[self.pass[g] as usize + 1] += 1;
        }
        for p in 1..start.len() {
            start[p] += start[p - 1];
        }
        let mut order = vec![0usize; resolved.len()];
        for g in resolved {
            let p = self.pass[g] as usize;
            order[start[p]] = g;
            start[p] += 1;
        }
        order
    }
}

fn strip_keyword<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let trimmed = line.trim_start();
    // Fallible slicing: `kw.len()` may land inside a multi-byte UTF-8
    // sequence of malformed input, where `trimmed[..kw.len()]` would
    // panic the whole process.
    let head = trimmed.get(..kw.len())?;
    if head.eq_ignore_ascii_case(kw) {
        let rest = trimmed.get(kw.len()..)?;
        rest.trim_start().starts_with('(').then_some(rest)
    } else {
        None
    }
}

fn parse_paren_arg(rest: &str, line: usize) -> Result<&str, NetlistError> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| NetlistError::Parse {
            line,
            message: "expected `(name)`".into(),
        })?
        .trim();
    if inner.is_empty() || inner.contains(|c: char| c.is_whitespace() || c == ',') {
        return Err(NetlistError::Parse {
            line,
            message: format!("bad signal name `{inner}`"),
        });
    }
    Ok(inner)
}

/// Serialise a circuit to `.bench` text.
///
/// Constants are emitted as `CONST0()` / `CONST1()` pseudo-gates (a common
/// extension); everything else is standard ISCAS-85 syntax. The output
/// round-trips through [`parse_bench`].
pub fn to_bench(circuit: &Circuit) -> String {
    let mut s = String::new();
    s.push_str(&format!("# {}\n", circuit.name()));
    for &i in circuit.inputs() {
        s.push_str(&format!("INPUT({})\n", circuit.node_name(i)));
    }
    for &o in circuit.outputs() {
        s.push_str(&format!("OUTPUT({})\n", circuit.node_name(o)));
    }
    for id in circuit.node_ids() {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            continue;
        }
        let args: Vec<&str> = node
            .fanins()
            .iter()
            .map(|&f| circuit.node_name(f))
            .collect();
        s.push_str(&format!(
            "{} = {}({})\n",
            circuit.node_name(id),
            node.kind().bench_name(),
            args.join(", ")
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "\
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parses_c17() {
        let c = parse_bench(C17).unwrap();
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.gate_count(), 6);
        // All-ones: 10 = NAND(1,1)=0, 11=0, 16=NAND(1,0)=1, 19=NAND(0,1)=1,
        // 22=NAND(0,1)=1, 23=NAND(1,1)=0.
        assert_eq!(c.evaluate_outputs(&[true; 5]).unwrap(), [true, false]);
    }

    #[test]
    fn round_trip() {
        let c = parse_bench(C17).unwrap();
        let text = to_bench(&c);
        let c2 = parse_bench(&text).unwrap();
        assert_eq!(c2.node_count(), c.node_count());
        assert_eq!(c2.inputs().len(), c.inputs().len());
        assert_eq!(c2.outputs().len(), c.outputs().len());
        // Behavioural equivalence on a few vectors.
        for p in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| p & (1 << i) != 0).collect();
            assert_eq!(
                c.evaluate_outputs(&v).unwrap(),
                c2.evaluate_outputs(&v).unwrap(),
                "pattern {p}"
            );
        }
    }

    #[test]
    fn out_of_order_definitions_ok() {
        let text = "OUTPUT(y)\ny = AND(a, b)\nINPUT(a)\nINPUT(b)\n";
        let c = parse_bench(text).unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# header\n\nINPUT(a) # trailing\n  \ny = NOT(a)\nOUTPUT(y)\n";
        let c = parse_bench(text).unwrap();
        assert_eq!(c.node_count(), 2);
    }

    #[test]
    fn dff_full_scan_conversion() {
        let text = "\
INPUT(a)
OUTPUT(y)
q = DFF(d)
d = AND(a, q)
y = NOT(q)
";
        let c = parse_bench(text).unwrap();
        // q becomes a pseudo-PI; d becomes a pseudo-PO.
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 2);
        let q = c.find_node("q").unwrap();
        assert_eq!(c.kind(q), GateKind::Input);
        let d = c.find_node("d").unwrap();
        assert!(c.is_output(d));
    }

    #[test]
    fn dff_rejected_in_reject_mode() {
        let text = "INPUT(a)\nq = DFF(a)\nOUTPUT(q)\n";
        assert!(matches!(
            parse_bench_with(text, "t", ScanMode::Reject),
            Err(NetlistError::Sequential { .. })
        ));
    }

    #[test]
    fn undefined_signal() {
        let text = "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n";
        assert!(matches!(
            parse_bench(text),
            Err(NetlistError::UndefinedSignal { name }) if name == "ghost"
        ));
    }

    #[test]
    fn combinational_cycle_detected() {
        let text = "INPUT(a)\nx = AND(a, y)\ny = NOT(x)\nOUTPUT(y)\n";
        assert!(matches!(parse_bench(text), Err(NetlistError::Cycle { .. })));
    }

    #[test]
    fn bad_syntax_reports_line() {
        let text = "INPUT(a)\nwhat is this\n";
        match parse_bench(text) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_gate_keyword() {
        let text = "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n";
        assert!(matches!(parse_bench(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn bad_arity_in_text() {
        let text = "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)\n";
        assert!(matches!(
            parse_bench(text),
            Err(NetlistError::InvalidArity { .. })
        ));
    }

    #[test]
    fn constants_round_trip() {
        let text = "INPUT(a)\none = CONST1()\ny = AND(a, one)\nOUTPUT(y)\n";
        let c = parse_bench(text).unwrap();
        let c2 = parse_bench(&to_bench(&c)).unwrap();
        assert_eq!(c2.evaluate_outputs(&[true]).unwrap(), [true]);
    }

    #[test]
    fn output_of_undefined_signal() {
        let text = "INPUT(a)\nOUTPUT(nope)\n";
        assert!(matches!(
            parse_bench(text),
            Err(NetlistError::UndefinedSignal { .. })
        ));
    }

    #[test]
    fn malformed_input_errors_instead_of_panicking() {
        // Every line here used to (or plausibly could) trip a byte-slice
        // panic or unchecked assumption; each must come back as a clean
        // error — a batch/serve front end feeds the parser untrusted
        // files and must never die on one.
        let nasty = [
            "ééé(a)\n",                  // byte 5 of "ééé" splits a UTF-8 char
            "é\n",                       // shorter than any keyword
            "ÍNPUT(a)\n",                // non-ASCII near-keyword
            "ñ = AND(a)\n",              // non-ASCII target
            "y = ÑAND(a, b)\n",          // non-ASCII gate keyword
            "y = (a, b)\n",              // empty keyword
            "= AND(a, b)\n",             // empty target
            "y = AND)a, b(\n",           // reversed parens
            "y = AND(a, b\n",            // missing close
            "INPUT()\n",                 // empty name
            "INPUT(a b)\n",              // whitespace in name
            "INPUT\n",                   // keyword without parens
            "OUTPUT(\n",                 // unclosed OUTPUT
            "y = DFF(a, b)\n",           // DFF arity
            "\u{0}\u{0}=\u{0}(\u{0})\n", // control characters
        ];
        for text in nasty {
            match parse_bench(text) {
                Ok(_) => {}
                Err(e) => {
                    let _ = e.to_string(); // Display must not panic either
                }
            }
        }
        // And the reported line number survives the hardening.
        match parse_bench("INPUT(a)\nééé(a)\n") {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn case_insensitive_keywords() {
        let text = "input(a)\ny = nand(a, a)\noutput(y)\n";
        let c = parse_bench(text).unwrap();
        assert_eq!(c.evaluate_outputs(&[true]).unwrap(), [false]);
    }
}
