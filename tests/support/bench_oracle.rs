//! Test-only reference `.bench` parser: the implementation the linear-time
//! parser in `tpi-netlist` replaced, kept as the oracle its node numbering
//! and its errors are checked against.
//!
//! It creates gates with a worklist — one sweep over the unresolved gates
//! in declaration order per dependency layer — and checks every name with
//! `Circuit::add_node`, which scans all existing names.

use std::collections::HashMap;

use krishnamurthy_tpi::netlist::bench_format::ScanMode;
use krishnamurthy_tpi::netlist::{Circuit, GateKind, NetlistError, NodeId};

/// Parse `.bench` text with an explicit circuit name and [`ScanMode`].
pub fn parse_bench_with(
    text: &str,
    name: &str,
    scan_mode: ScanMode,
) -> Result<Circuit, NetlistError> {
    enum Decl {
        Input,
        Gate(GateKind, Vec<String>),
        Dff(String),
    }
    let mut decls: Vec<(String, Decl)> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();

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
            let args: Vec<String> = rhs
                .get(open + 1..close)
                .ok_or_else(|| sliced.clone())?
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if keyword.eq_ignore_ascii_case("DFF") {
                if args.len() != 1 {
                    return Err(parse_err(format!(
                        "DFF takes 1 argument, got {}",
                        args.len()
                    )));
                }
                match scan_mode {
                    ScanMode::FullScan => {
                        decls.push((target.to_string(), Decl::Dff(args[0].clone())));
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
                kind.check_arity(args.len())?;
                decls.push((target.to_string(), Decl::Gate(kind, args)));
            }
        } else {
            return Err(parse_err(format!("unrecognised line `{line}`")));
        }
    }

    // First pass: create all nodes (inputs and DFF outputs first so gate
    // fanins resolve; gate nodes are created in dependency order below).
    let mut circuit = Circuit::new(name);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut pending: Vec<(String, GateKind, Vec<String>)> = Vec::new();
    let mut scan_outputs: Vec<String> = Vec::new();

    for (target, decl) in decls {
        match decl {
            Decl::Input => {
                let id = circuit.add_node(GateKind::Input, vec![], target.clone())?;
                ids.insert(target, id);
            }
            Decl::Dff(data_in) => {
                // Full scan: FF output is a pseudo-PI, its data input a
                // pseudo-PO.
                let id = circuit.add_node(GateKind::Input, vec![], target.clone())?;
                ids.insert(target, id);
                scan_outputs.push(data_in);
            }
            Decl::Gate(kind, args) => pending.push((target, kind, args)),
        }
    }

    // Resolve gates iteratively (a worklist tolerates out-of-order decls).
    let mut progress = true;
    while progress && !pending.is_empty() {
        progress = false;
        let mut next = Vec::with_capacity(pending.len());
        for (target, kind, args) in pending {
            if args.iter().all(|a| ids.contains_key(a)) {
                let fanins = args.iter().map(|a| ids[a]).collect();
                let id = circuit.add_node(kind, fanins, target.clone())?;
                ids.insert(target, id);
                progress = true;
            } else {
                next.push((target, kind, args));
            }
        }
        pending = next;
    }
    if let Some((target, _, args)) = pending.first() {
        // Either an undefined signal or a combinational cycle.
        let missing = args.iter().find(|a| !ids.contains_key(*a));
        return Err(match missing {
            Some(m) if !pending.iter().any(|(t, _, _)| t == m) => {
                NetlistError::UndefinedSignal { name: m.clone() }
            }
            _ => NetlistError::Cycle {
                node: target.clone(),
            },
        });
    }

    for name in output_names.iter().chain(scan_outputs.iter()) {
        let id = *ids
            .get(name)
            .ok_or_else(|| NetlistError::UndefinedSignal { name: name.clone() })?;
        circuit.add_output(id)?;
    }
    circuit.validate()?;
    Ok(circuit)
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

fn parse_paren_arg(rest: &str, line: usize) -> Result<String, NetlistError> {
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
    Ok(inner.to_string())
}
