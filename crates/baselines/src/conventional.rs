//! The conventional two-step RTL + logic synthesis baseline: operation-level module
//! binding with balanced addition trees.
//!
//! Every word-level operation of the expression tree is implemented by a closed module
//! from `dpsyn-modules` (carry-lookahead or ripple adder, Wallace or array multiplier),
//! so every intermediate result goes through its own carry-propagate adder — the
//! behaviour the paper's global carry-save formulation avoids. Chains of additions are
//! flattened and rebuilt as balanced binary trees, which is the standard "tree height
//! reduction" a conventional RTL optimiser performs.

use crate::flow::{BaselineError, FlowResult};
use dpsyn_ir::{Expr, InputSpec, IrError};
use dpsyn_modules::builders::{AdderKind, MultiplierKind};
use dpsyn_modules::{adder, zero_extend};
use dpsyn_netlist::{NetId, Netlist, Word, WordMap};
use dpsyn_tech::TechLibrary;
use std::collections::BTreeMap;

/// Synthesizes `expr` with the conventional operation-level flow and analyses the
/// result under the design's input characteristics.
///
/// # Errors
///
/// Returns an error when the expression references undeclared variables, when netlist
/// construction fails, or when an analysis fails.
pub fn conventional(
    expr: &Expr,
    spec: &InputSpec,
    width: u32,
    tech: &TechLibrary,
) -> Result<FlowResult, BaselineError> {
    let (netlist, word_map) = conventional_netlist(expr, spec, width)?;
    FlowResult::analyze("conventional", netlist, word_map, spec, tech)
}

/// The synthesis step of [`conventional`] alone: builds the netlist and its
/// word-level interface **without running any analysis**.
///
/// Module binding never looks at the spec's arrival or probability profiles — only at
/// variable names and widths — so two design points that differ solely in their input
/// profiles synthesize structurally identical netlists, and the exploration engine's
/// per-worker sim cache reuses one compiled block program across them.
///
/// # Errors
///
/// Returns an error when the expression references undeclared variables or netlist
/// construction fails.
pub fn conventional_netlist(
    expr: &Expr,
    spec: &InputSpec,
    width: u32,
) -> Result<(Netlist, WordMap), BaselineError> {
    let mut netlist = Netlist::new("conventional");
    let mut inputs: BTreeMap<String, Vec<NetId>> = BTreeMap::new();
    let mut input_words = Vec::new();
    for var in spec.vars() {
        let bits: Vec<NetId> = (0..var.width())
            .map(|bit| netlist.add_input(format!("{}[{}]", var.name(), bit)))
            .collect();
        input_words.push(Word::new(var.name(), bits.clone()));
        inputs.insert(var.name().to_string(), bits);
    }
    let mut builder = OperationBinder {
        netlist: &mut netlist,
        inputs: &inputs,
        width: width as usize,
    };
    let mut result = builder.generate(expr)?;
    result.truncate(width as usize);
    let padded = zero_extend(&mut netlist, &result, width as usize);
    for net in &padded {
        netlist.mark_output(*net);
    }
    let word_map = WordMap::new(input_words, Word::new("out", padded));
    Ok((netlist, word_map))
}

/// Recursive operation-to-module binder.
struct OperationBinder<'a> {
    netlist: &'a mut Netlist,
    inputs: &'a BTreeMap<String, Vec<NetId>>,
    width: usize,
}

impl OperationBinder<'_> {
    /// Picks the adder architecture a conventional flow would bind an addition of this
    /// width to: ripple for narrow words, carry-lookahead otherwise.
    fn adder_kind(width: usize) -> AdderKind {
        if width <= 4 {
            AdderKind::Ripple
        } else {
            AdderKind::CarryLookahead
        }
    }

    /// Picks the multiplier architecture: array for narrow operands, Wallace otherwise.
    fn multiplier_kind(width: usize) -> MultiplierKind {
        if width <= 4 {
            MultiplierKind::Array
        } else {
            MultiplierKind::Wallace
        }
    }

    fn generate(&mut self, expr: &Expr) -> Result<Vec<NetId>, BaselineError> {
        match expr {
            Expr::Var(name) => self
                .inputs
                .get(name)
                .cloned()
                .ok_or_else(|| BaselineError::Ir(IrError::UnknownVariable(name.clone()))),
            Expr::Const(value) => {
                let modulus = 1i128 << self.width;
                let folded = i128::from(*value).rem_euclid(modulus) as u64;
                Ok((0..self.width)
                    .map(|bit| self.netlist.constant((folded >> bit) & 1 == 1))
                    .collect())
            }
            Expr::Add(_, _) => {
                // Flatten the addition chain and rebuild it as a balanced binary tree.
                let mut terms = Vec::new();
                flatten_additions(expr, &mut terms);
                let mut words: Vec<Vec<NetId>> = terms
                    .iter()
                    .map(|term| self.generate(term))
                    .collect::<Result<_, _>>()?;
                while words.len() > 1 {
                    let mut next = Vec::with_capacity(words.len().div_ceil(2));
                    let mut iter = words.into_iter();
                    while let Some(first) = iter.next() {
                        match iter.next() {
                            Some(second) => next.push(self.add(&first, &second)?),
                            None => next.push(first),
                        }
                    }
                    words = next;
                }
                Ok(words.pop().expect("at least one addition term"))
            }
            Expr::Sub(lhs, rhs) => {
                let left = self.generate(lhs)?;
                let right = self.generate(rhs)?;
                Ok(adder::subtract(self.netlist, &left, &right, self.width)?)
            }
            Expr::Neg(inner) => {
                let word = self.generate(inner)?;
                Ok(adder::negate(self.netlist, &word, self.width)?)
            }
            Expr::Mul(lhs, rhs) => {
                let left = self.generate(lhs)?;
                let right = self.generate(rhs)?;
                let kind = Self::multiplier_kind(left.len().max(right.len()));
                let mut product = kind.generate(self.netlist, &left, &right)?;
                product.truncate(self.width);
                Ok(product)
            }
            Expr::Shl(inner, amount) => {
                let word = self.generate(inner)?;
                let mut shifted: Vec<NetId> = vec![self.netlist.constant(false); *amount as usize];
                shifted.extend(word);
                shifted.truncate(self.width);
                Ok(shifted)
            }
        }
    }

    fn add(&mut self, a: &[NetId], b: &[NetId]) -> Result<Vec<NetId>, BaselineError> {
        let kind = Self::adder_kind(a.len().max(b.len()));
        let mut sum = kind.generate(self.netlist, a, b, None)?;
        sum.truncate(self.width);
        Ok(sum)
    }
}

/// Flattens nested additions into a term list (stops at any non-addition node).
fn flatten_additions<'e>(expr: &'e Expr, terms: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Add(lhs, rhs) => {
            flatten_additions(lhs, terms);
            flatten_additions(rhs, terms);
        }
        other => terms.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::parse_expr;
    use dpsyn_sim::check_equivalence;

    fn check(source: &str, spec: &InputSpec, width: u32) -> FlowResult {
        let expr = parse_expr(source).unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let result = conventional(&expr, spec, width, &lib).unwrap();
        check_equivalence(
            &result.netlist,
            &result.word_map,
            &expr,
            spec,
            width,
            200,
            23,
        )
        .unwrap_or_else(|error| panic!("{source}: {error}"));
        result
    }

    #[test]
    fn additions_subtractions_and_constants() {
        let spec = InputSpec::builder()
            .var("a", 4)
            .var("b", 4)
            .var("c", 4)
            .build()
            .unwrap();
        check("a + b + c", &spec, 6);
        check("a - b + 9", &spec, 6);
        check("a - b - c", &spec, 6);
        check("-a + 30", &spec, 6);
    }

    #[test]
    fn multiplications_and_shifts() {
        let spec = InputSpec::builder()
            .var("a", 3)
            .var("b", 3)
            .var("c", 3)
            .build()
            .unwrap();
        check("a*b + c", &spec, 7);
        check("a*b - b*c", &spec, 8);
        check("(a << 2) + b", &spec, 6);
        check("a*a*a", &spec, 9);
    }

    #[test]
    fn long_addition_chains_are_balanced() {
        let spec = InputSpec::builder()
            .var("a", 6)
            .var("b", 6)
            .var("c", 6)
            .var("d", 6)
            .var("e", 6)
            .var("f", 6)
            .var("g", 6)
            .var("h", 6)
            .build()
            .unwrap();
        let result = check("a + b + c + d + e + f + g + h", &spec, 9);
        // A balanced 8-leaf tree has three adder levels; a left-leaning chain would have
        // seven. The structural depth must therefore stay well below the chain depth.
        let serial_depth_estimate = 7 * 6; // 7 ripple adders of 6+ bits
        assert!(result.netlist.logic_depth() < serial_depth_estimate);
    }

    #[test]
    fn unknown_variable_is_reported() {
        let spec = InputSpec::builder().var("a", 3).build().unwrap();
        let expr = parse_expr("a + ghost").unwrap();
        let result = conventional(&expr, &spec, 5, &TechLibrary::unit());
        assert!(matches!(result, Err(BaselineError::Ir(_))));
    }

    #[test]
    fn paper_style_polynomial_matches_golden_model() {
        let spec = InputSpec::builder()
            .var("x", 4)
            .var("y", 4)
            .var("z", 4)
            .build()
            .unwrap();
        check("x + y - z + x*y - y*z + 10", &spec, 9);
        check("x*x + 2*x*y + y*y + 2*x + 2*y + 1", &spec, 10);
    }
}
