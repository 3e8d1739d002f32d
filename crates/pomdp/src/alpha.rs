//! Alpha-vector value functions of the two-state node POMDP.
//!
//! Theorem 1 makes the recovery problem a POMDP over two hidden states
//! (H, C), so a belief is the scalar `b = P[C]` and an alpha vector is a line
//! over `b ∈ [0, 1]`. With cost minimization the finite-horizon value
//! function is the lower envelope of finitely many such lines (Fig. 4 in the
//! paper shows exactly this envelope). This module provides the line type,
//! the value-function container, and the two pruning operations of
//! incremental pruning: pointwise domination, and the exact prune that keeps
//! a line only where it wins somewhere on the belief segment.

/// Tolerance of both pruning operations: a line must win by more than this
/// to be kept, and a line that another one undercuts by at most this is
/// dominated.
const PRUNING_TOLERANCE: f64 = 1e-9;

/// A single alpha vector: a line over the belief `b = P[C]`, plus the action
/// whose choice the line encodes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlphaVector {
    /// The line's values at `b = 0` (healthy) and `b = 1` (compromised).
    pub values: [f64; 2],
    /// The action associated with this vector.
    pub action: usize,
}

impl AlphaVector {
    /// Creates an alpha vector.
    pub fn new(values: [f64; 2], action: usize) -> Self {
        AlphaVector { values, action }
    }

    /// Whether `other` is at least as good (for minimization: no larger) in
    /// both states, making `self` redundant.
    fn is_pointwise_dominated_by(&self, other: &AlphaVector) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|(mine, theirs)| *theirs <= *mine + PRUNING_TOLERANCE)
    }
}

/// A line's value at belief `b`: `line[0] (1 − b) + line[1] b`.
fn line_at(line: [f64; 2], b: f64) -> f64 {
    line[0] * (1.0 - b) + line[1] * b
}

/// A piecewise-linear value function represented as the lower envelope of a
/// set of alpha vectors.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ValueFunction {
    pub(crate) vectors: Vec<AlphaVector>,
}

impl ValueFunction {
    /// Creates a value function from a set of vectors.
    pub fn new(vectors: Vec<AlphaVector>) -> Self {
        ValueFunction { vectors }
    }

    /// The vectors making up the lower envelope.
    pub fn vectors(&self) -> &[AlphaVector] {
        &self.vectors
    }

    /// Number of alpha vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the value function has no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Evaluates the value function at the belief `b = P[C]`: the minimum
    /// over the lines, which is `+∞` for an empty set.
    pub fn evaluate(&self, b: f64) -> f64 {
        self.vectors
            .iter()
            .map(|v| line_at(v.values, b))
            .fold(f64::INFINITY, f64::min)
    }

    /// The greedy action at the belief `b = P[C]` (action of the minimizing
    /// vector, the first one on a tie).
    ///
    /// Returns `None` if the value function is empty.
    pub fn greedy_action(&self, b: f64) -> Option<usize> {
        self.vectors
            .iter()
            .map(|v| (v.action, line_at(v.values, b)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(action, _)| action)
    }

    /// Removes vectors that are pointwise dominated by another vector.
    pub fn prune_pointwise(&mut self) {
        let vectors = &self.vectors;
        let keep: Vec<bool> = vectors
            .iter()
            .enumerate()
            .map(|(i, candidate)| {
                !vectors.iter().enumerate().any(|(j, other)| {
                    // Of two identical vectors exactly one survives (the
                    // earlier one).
                    i != j
                        && candidate.is_pointwise_dominated_by(other)
                        && (j < i || !other.is_pointwise_dominated_by(candidate))
                })
            })
            .collect();
        retain_marked(&mut self.vectors, &keep);
    }

    /// Exact pruning: after the pointwise pass, keeps a line iff it lies
    /// below every other line by more than the tolerance somewhere on
    /// `[0, 1]`, i.e. iff `max_b min_j (α_j − α)(b)` exceeds it (the witness
    /// condition of incremental pruning). Should no line pass, the first is
    /// kept, so the envelope never becomes empty.
    pub fn prune(&mut self) {
        self.prune_pointwise();
        if self.vectors.len() <= 1 {
            return;
        }
        let mut differences = Vec::with_capacity(self.vectors.len() - 1);
        let keep: Vec<bool> = (0..self.vectors.len())
            .map(|c| {
                let [c0, c1] = self.vectors[c].values;
                differences.clear();
                differences.extend(
                    (self.vectors.iter().enumerate())
                        .filter(|&(j, _)| j != c)
                        .map(|(_, other)| [other.values[0] - c0, other.values[1] - c1]),
                );
                envelope_maximum(&differences) > PRUNING_TOLERANCE
            })
            .collect();
        if keep.contains(&true) {
            retain_marked(&mut self.vectors, &keep);
        } else {
            self.vectors.truncate(1);
        }
    }
}

fn retain_marked(vectors: &mut Vec<AlphaVector>, keep: &[bool]) {
    let mut marks = keep.iter();
    vectors.retain(|_| *marks.next().expect("one mark per vector"));
}

/// `max_{b ∈ [0, 1]} min_j line_j(b)` for a non-empty set of lines given by
/// their values at `b = 0` and `b = 1`.
///
/// The lower envelope is concave, so it is walked from `b = 0` to the right
/// while it rises: from the lowest line at `b` (the flattest on a tie), step
/// to the first crossing with a flatter line, and stop where the current line
/// no longer rises or no crossing lies before `b = 1`. Every step moves to a
/// strictly flatter line, so the walk ends after at most `lines.len()` steps.
fn envelope_maximum(lines: &[[f64; 2]]) -> f64 {
    let slope = |line: [f64; 2]| line[1] - line[0];
    let envelope = |b: f64| {
        lines
            .iter()
            .map(|&line| line_at(line, b))
            .fold(f64::INFINITY, f64::min)
    };
    let mut current = lines
        .iter()
        .copied()
        .min_by(|x, y| x[0].total_cmp(&y[0]).then(slope(*x).total_cmp(&slope(*y))))
        .expect("at least one line");
    let mut b = 0.0;
    while slope(current) > 0.0 {
        // The first line that crosses below `current` to the right.
        let next = lines
            .iter()
            .copied()
            .filter(|&line| slope(line) < slope(current))
            .map(|line| {
                let crossing = (line[0] - current[0]) / (slope(current) - slope(line));
                (crossing, line)
            })
            .min_by(|x, y| x.0.total_cmp(&y.0).then(slope(x.1).total_cmp(&slope(y.1))));
        match next {
            Some((crossing, line)) if crossing < 1.0 => {
                b = crossing.max(b);
                current = line;
            }
            _ => return envelope(1.0),
        }
    }
    envelope(b)
}

/// Computes the cross sum of two vector sets: every pairwise sum, keeping the
/// action of the first operand. Used by incremental pruning to combine the
/// per-observation backup sets.
pub(crate) fn cross_sum(a: &[AlphaVector], b: &[AlphaVector]) -> Vec<AlphaVector> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() * b.len());
    for va in a {
        for vb in b {
            let values = [va.values[0] + vb.values[0], va.values[1] + vb.values[1]];
            out.push(AlphaVector::new(values, va.action));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn line_value_and_domination() {
        let a = AlphaVector::new([1.0, 3.0], 0);
        let b = AlphaVector::new([0.5, 2.0], 1);
        assert_close(line_at(a.values, 0.5), 2.0, 1e-12);
        assert!(a.is_pointwise_dominated_by(&b));
        assert!(!b.is_pointwise_dominated_by(&a));
    }

    #[test]
    fn evaluate_takes_lower_envelope() {
        let vf = ValueFunction::new(vec![
            AlphaVector::new([0.0, 2.0], 0),
            AlphaVector::new([2.0, 0.0], 1),
        ]);
        assert_close(vf.evaluate(0.0), 0.0, 1e-12);
        assert_close(vf.evaluate(1.0), 0.0, 1e-12);
        assert_close(vf.evaluate(0.5), 1.0, 1e-12);
        assert_eq!(vf.greedy_action(0.1), Some(0));
        assert_eq!(vf.greedy_action(0.9), Some(1));
        assert_eq!(vf.len(), 2);
        assert!(!vf.is_empty());
    }

    #[test]
    fn an_empty_value_function_is_infinite_and_has_no_action() {
        let vf = ValueFunction::default();
        assert_eq!(vf.evaluate(0.5), f64::INFINITY);
        assert!(vf.greedy_action(0.5).is_none());
    }

    #[test]
    fn pointwise_pruning_removes_dominated_and_keeps_one_duplicate() {
        let mut vf = ValueFunction::new(vec![
            AlphaVector::new([1.0, 1.0], 0),
            AlphaVector::new([2.0, 2.0], 1), // dominated
            AlphaVector::new([1.0, 1.0], 2), // duplicate of the first
        ]);
        vf.prune_pointwise();
        assert_eq!(vf.len(), 1);
        assert_eq!(vf.vectors()[0].action, 0);
    }

    #[test]
    fn exact_pruning_removes_vectors_never_on_the_envelope() {
        // Vector c = (1.1, 1.1) is above the envelope of a and b everywhere
        // on [0, 1], but is not pointwise dominated by either alone.
        let mut vf = ValueFunction::new(vec![
            AlphaVector::new([0.0, 2.0], 0),
            AlphaVector::new([2.0, 0.0], 1),
            AlphaVector::new([1.1, 1.1], 2),
        ]);
        vf.prune();
        assert_eq!(vf.len(), 2);
        assert!(vf.vectors().iter().all(|v| v.action != 2));
    }

    #[test]
    fn exact_pruning_keeps_vectors_that_win_somewhere() {
        // The middle vector wins near b = 1/2.
        let mut vf = ValueFunction::new(vec![
            AlphaVector::new([0.0, 2.0], 0),
            AlphaVector::new([2.0, 0.0], 1),
            AlphaVector::new([0.8, 0.8], 2),
        ]);
        vf.prune();
        assert_eq!(vf.len(), 3);
    }

    #[test]
    fn exact_pruning_handles_tiny_sets() {
        let mut vf = ValueFunction::new(vec![AlphaVector::new([1.0, 1.0], 0)]);
        vf.prune();
        assert_eq!(vf.len(), 1);
        let mut empty = ValueFunction::default();
        empty.prune();
        assert!(empty.is_empty());
    }

    #[test]
    fn the_envelope_walk_finds_the_maximum_of_the_lower_envelope() {
        // Rising, then a peak at b = 1/2, at b = 0 and at b = 1.
        assert_close(envelope_maximum(&[[0.0, 2.0], [2.0, 0.0]]), 1.0, 1e-15);
        assert_close(envelope_maximum(&[[1.0, 0.0], [3.0, 2.0]]), 1.0, 1e-15);
        assert_close(envelope_maximum(&[[0.0, 1.0], [0.5, 3.0]]), 1.0, 1e-15);
        // Three pieces: up to 1/4, flat, then down; the flat top is 0.5.
        let lines = [[0.0, 4.0], [0.5, 0.5], [4.0, 0.0]];
        assert_close(envelope_maximum(&lines), 0.5, 1e-15);
        // A tie at b = 0 goes to the flatter line.
        assert_close(envelope_maximum(&[[0.0, 5.0], [0.0, -1.0]]), 0.0, 1e-15);
    }

    /// Two witness problems of the paper's node POMDP (horizon-10 solve):
    /// "v0 v1" pairs with the candidate first. Their margins, computed by a
    /// breakpoint scan in rational arithmetic, are pinned next to the
    /// LP kernel's `witness_lps_once_called_unbounded_are_solved`.
    fn margin_of(vectors: &str) -> f64 {
        let v: Vec<f64> = vectors
            .split_whitespace()
            .map(|x| x.parse().unwrap())
            .collect();
        let differences: Vec<[f64; 2]> = v[2..]
            .chunks(2)
            .map(|o| [o[0] - v[0], o[1] - v[1]])
            .collect();
        envelope_maximum(&differences)
    }

    #[test]
    fn the_envelope_walk_reproduces_the_exact_witness_margins() {
        let useful = "0.525083909269583 2.3057507425586516  \
            0.5239937653563239 2.3063436166168354  0.523993442938339 2.3063437944846803  \
            0.5239388118768104 2.3063745149424015  0.5231842496751457 2.306956955866184  \
            0.5118422669436596 2.3162590616915533  0.511177411295357 2.3168875449718356  \
            0.5035035799130816 2.3375498772367864  0.5052015422193195 2.3268389105281853  \
            0.5033980701572089 2.3382577943447482  0.5033980401378142 2.3382580066286582  \
            0.5033932274741326 2.338294648960755  0.5111772151460112 2.3168877334826017  \
            0.7823894698999729 2.1734427247926247";
        let dominated = "1.2865940585354498 4.236809780718081  \
            1.3880297059545894 4.080438386438141  1.3874147388430507 4.081061787674568  \
            1.5308445923299612 3.9412287963456665  1.5308461865707947 3.9412274001450225  \
            1.5419485508644057 3.9317388152523014  1.5430512738343587 3.931145365050117  \
            1.2930303799366563 4.226257379098183  1.2926247875102865 4.226907400938917  \
            1.2865931940968607 4.236811237413714  1.280824328485257 4.246957493390908  \
            1.2808235071930543 4.246958985992326  1.2808034903185204 4.247003082610599  \
            1.2234413036032683 4.388439572845033  1.2231716398859094 4.389116816106902  \
            1.1992974310003917 4.5159649245497215  1.1765403423496998 4.683758029289388  \
            1.1676335260938744 4.863354417095275  1.1675982440212154 4.86415471975345  \
            1.1764446233307642 4.684508923702059  2.1294039909512663 2.1294039909512663";
        assert_close(margin_of(useful), 2.12498952414979e-5, 1e-12);
        assert_close(margin_of(dominated), -1.6724769111270581e-3, 1e-12);
    }

    #[test]
    fn cross_sum_combines_sets() {
        let a = vec![
            AlphaVector::new([1.0, 0.0], 0),
            AlphaVector::new([0.0, 1.0], 1),
        ];
        let b = vec![AlphaVector::new([10.0, 10.0], 7)];
        let sum = cross_sum(&a, &b);
        assert_eq!(sum.len(), 2);
        assert_eq!(sum[0].values, [11.0, 10.0]);
        assert_eq!(
            sum[0].action, 0,
            "cross sum keeps the first operand's action"
        );
        assert_eq!(cross_sum(&[], &b).len(), 1);
        assert_eq!(cross_sum(&a, &[]).len(), 2);
    }
}
