//! Alpha-vector value functions of the two-state node POMDP.
//!
//! Theorem 1 makes the recovery problem a POMDP over two hidden states
//! (H, C), so a belief is the scalar `b = P[C]` and an alpha vector is a line
//! over `b ∈ [0, 1]`. With cost minimization the finite-horizon value
//! function is the lower envelope of finitely many such lines (Fig. 4 in the
//! paper shows exactly this envelope): a concave, piecewise-linear function.
//! A [`ValueFunction`] holds only that envelope, its lines sorted left to
//! right, so their slopes strictly decrease and line `i` is the minimum
//! between its crossings with lines `i − 1` and `i + 1`.
//!
//! The sum of two concave envelopes is the concave envelope whose breakpoints
//! are the union of theirs, so the cross sum of incremental pruning is one
//! merge in slope order ([`ValueFunction::merge_sum`]) and needs no pruning;
//! the union over actions is one envelope ([`ValueFunction::new`]).
//!
//! One tie rule holds throughout: of two lines equal at a belief, the one
//! with the lower action index wins. It picks the line [`ValueFunction::new`]
//! keeps of two identical ones, and the action [`ValueFunction::greedy_action`]
//! returns on a breakpoint. A line that is minimal only at a single belief is
//! not part of the envelope.

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

    /// The line's value at belief `b`: `values[0] (1 − b) + values[1] b`.
    fn at(&self, b: f64) -> f64 {
        self.values[0] * (1.0 - b) + self.values[1] * b
    }

    fn slope(&self) -> f64 {
        self.values[1] - self.values[0]
    }
}

/// The belief where `right`, the flatter line, crosses below `left`.
fn crossing(left: &AlphaVector, right: &AlphaVector) -> f64 {
    (right.values[0] - left.values[0]) / (left.slope() - right.slope())
}

/// A piecewise-linear value function: the lower envelope of a set of alpha
/// vectors over `b ∈ [0, 1]`, sorted left to right. The default is the empty
/// envelope, `+∞` everywhere.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueFunction {
    pub(crate) vectors: Vec<AlphaVector>,
    /// `breakpoints[i] ∈ (0, 1)` is where line `i + 1` takes over from line
    /// `i`, increasing. They are kept, not recomputed from neighbouring
    /// lines: the crossing of two nearly parallel sums is ill-conditioned.
    breakpoints: Vec<f64>,
}

impl ValueFunction {
    /// The lower envelope of `vectors` over `b ∈ [0, 1]`: one sort by slope
    /// (steepest first; of parallel lines only the lowest at `b = 0` stays),
    /// then one hull pass that keeps a line iff it is strictly below every
    /// other line on an interval of positive length.
    pub fn new(mut vectors: Vec<AlphaVector>) -> Self {
        vectors.sort_unstable_by(|x, y| {
            (y.slope().total_cmp(&x.slope()))
                .then(x.values[0].total_cmp(&y.values[0]))
                .then(x.action.cmp(&y.action))
        });
        vectors.dedup_by(|later, kept| later.slope() == kept.slope());
        let mut hull: Vec<AlphaVector> = Vec::with_capacity(vectors.len());
        let mut breakpoints: Vec<f64> = Vec::with_capacity(vectors.len());
        for line in vectors {
            // Pop the lines `line` undercuts before they start to win.
            while let Some(last) = hull.last() {
                let end = crossing(last, &line);
                if end > breakpoints.last().copied().unwrap_or(0.0) {
                    breakpoints.push(end);
                    break;
                }
                hull.pop();
                breakpoints.pop();
            }
            hull.push(line);
        }
        // The lines that start to win only at or right of `b = 1`.
        while breakpoints.last().is_some_and(|&start| start >= 1.0) {
            hull.pop();
            breakpoints.pop();
        }
        ValueFunction {
            vectors: hull,
            breakpoints,
        }
    }

    /// The lines of the envelope, left to right.
    pub fn vectors(&self) -> &[AlphaVector] {
        &self.vectors
    }

    /// Number of lines on the envelope.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the envelope has no lines.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The index of the line that is minimal at `b`, by bisection over the
    /// breakpoints (the left line on a breakpoint).
    fn active(&self, b: f64) -> usize {
        self.breakpoints.partition_point(|&start| start < b)
    }

    /// Evaluates the value function at the belief `b = P[C]`, in
    /// `O(log n)`; `+∞` for the empty envelope.
    pub fn evaluate(&self, b: f64) -> f64 {
        (self.vectors.get(self.active(b))).map_or(f64::INFINITY, |line| line.at(b))
    }

    /// The greedy action at the belief `b = P[C]`: the minimal line's, and
    /// on a breakpoint the lower action of the two lines that meet there.
    ///
    /// Returns `None` if the value function is empty.
    pub fn greedy_action(&self, b: f64) -> Option<usize> {
        let index = self.active(b);
        let action = self.vectors.get(index)?.action;
        if self.breakpoints.get(index) == Some(&b) {
            return Some(action.min(self.vectors[index + 1].action));
        }
        Some(action)
    }

    /// The envelope of the cross sum `{α + β}` of two envelopes, keeping
    /// `self`'s actions: one sum per piece of the union of both breakpoint
    /// sets, found by one merge, so at most `m + n − 1` lines in `O(m + n)`.
    ///
    /// # Panics
    ///
    /// If either envelope is empty: an empty operand is a lost term, not an
    /// identity.
    pub fn merge_sum(&self, other: &ValueFunction) -> ValueFunction {
        assert!(
            !self.is_empty() && !other.is_empty(),
            "merge_sum of an empty envelope"
        );
        let pieces = self.len() + other.len() - 1;
        let mut vectors = Vec::with_capacity(pieces);
        let mut breakpoints = Vec::with_capacity(pieces - 1);
        let (mut i, mut j) = (0, 0);
        loop {
            let [a, b] = [self.vectors[i].values, other.vectors[j].values];
            let action = self.vectors[i].action;
            vectors.push(AlphaVector::new([a[0] + b[0], a[1] + b[1]], action));
            // Where each operand's current piece ends (`∞` on its last).
            let x = self.breakpoints.get(i).copied().unwrap_or(f64::INFINITY);
            let y = other.breakpoints.get(j).copied().unwrap_or(f64::INFINITY);
            if x.min(y) == f64::INFINITY {
                return ValueFunction {
                    vectors,
                    breakpoints,
                };
            }
            breakpoints.push(x.min(y));
            // A breakpoint both share ends both pieces at once.
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
    }

    /// `max_b |V(b) − W(b)|` over `[0, 1]`, exactly: the difference of two
    /// piecewise-linear functions is extreme at a breakpoint of either or at
    /// an end of the segment. `+∞` if one of them is empty.
    pub(crate) fn sup_distance(&self, other: &ValueFunction) -> f64 {
        let distance = |&b: &f64| (self.evaluate(b) - other.evaluate(b)).abs();
        ([0.0, 1.0].iter())
            .chain(&self.breakpoints)
            .chain(&other.breakpoints)
            .map(distance)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    fn envelope(lines: &[[f64; 2]]) -> ValueFunction {
        let vectors = lines.iter().enumerate();
        ValueFunction::new(
            vectors
                .map(|(a, &line)| AlphaVector::new(line, a))
                .collect(),
        )
    }

    fn actions(value: &ValueFunction) -> Vec<usize> {
        value.vectors().iter().map(|line| line.action).collect()
    }

    #[test]
    fn evaluate_takes_lower_envelope() {
        let vf = envelope(&[[0.0, 2.0], [2.0, 0.0]]);
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
        assert!(ValueFunction::new(Vec::new()).is_empty());
    }

    #[test]
    fn the_envelope_keeps_the_lines_that_win_on_an_interval_left_to_right() {
        // (1.1, 1.1) is above the envelope of the first two everywhere, but
        // dominated by neither alone; (0.8, 0.8) wins around b = 1/2.
        assert_eq!(
            actions(&envelope(&[[0.0, 2.0], [2.0, 0.0], [1.1, 1.1]])),
            [0, 1]
        );
        let three = [[2.0, 0.0], [0.8, 0.8], [0.0, 2.0]];
        assert_eq!(actions(&envelope(&three)), [2, 1, 0]);
        // Lines that win only left of 0 or right of 1, or only at a point.
        assert_eq!(
            actions(&envelope(&[[0.0, 1.0], [0.5, 3.0], [1.0, 1.5]])),
            [0]
        );
        assert_eq!(
            actions(&envelope(&[[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])),
            [0, 2]
        );
        assert_eq!(actions(&envelope(&[[0.0, 2.0], [0.0, 1.0]])), [1]);
    }

    #[test]
    fn of_two_equal_lines_the_lower_action_wins() {
        // Identical lines keep the lowest action, whatever their order.
        let vf = ValueFunction::new(vec![
            AlphaVector::new([1.0, 1.0], 2),
            AlphaVector::new([2.0, 2.0], 1),
            AlphaVector::new([1.0, 1.0], 0),
        ]);
        assert_eq!(vf.vectors(), [AlphaVector::new([1.0, 1.0], 0)]);
        // On a breakpoint the lower action wins, on either side of it.
        for (left, right) in [(0, 1), (1, 0)] {
            let vf = ValueFunction::new(vec![
                AlphaVector::new([0.0, 2.0], left),
                AlphaVector::new([2.0, 0.0], right),
            ]);
            assert_eq!(vf.greedy_action(0.5), Some(0));
            assert_eq!(vf.greedy_action(0.25), Some(left));
        }
    }

    #[test]
    fn merge_sum_adds_pieces_over_the_union_of_breakpoints() {
        // Breakpoints at 1/2 and at 1/8, 7/8: four pieces.
        let first = envelope(&[[0.0, 2.0], [2.0, 0.0]]);
        let second = envelope(&[[0.0, 4.0], [0.5, 0.5], [4.0, 0.0]]);
        let sum = first.merge_sum(&second);
        let values: Vec<[f64; 2]> = sum.vectors().iter().map(|line| line.values).collect();
        assert_eq!(values, [[0.0, 6.0], [0.5, 2.5], [2.5, 0.5], [6.0, 0.0]]);
        assert_eq!(actions(&sum), [0, 0, 1, 1], "the first operand's actions");
        // A shared breakpoint ends both pieces at once.
        assert_eq!(first.merge_sum(&first).len(), 2);
        let line = envelope(&[[10.0, 10.0]]);
        assert_eq!(line.merge_sum(&second).len(), 3);
    }

    #[test]
    #[should_panic(expected = "merge_sum of an empty envelope")]
    fn merge_sum_refuses_an_empty_operand() {
        envelope(&[[1.0, 0.0]]).merge_sum(&ValueFunction::default());
    }

    #[test]
    fn the_sup_distance_is_found_between_grid_points() {
        // The difference peaks at b = 0.51, a breakpoint of the tent, where a
        // 21-point grid reads at most 0.98.
        let flat = envelope(&[[0.0, 0.0]]);
        let tent = envelope(&[[0.0, 100.0 / 51.0], [100.0 / 49.0, 0.0]]);
        assert_close(flat.sup_distance(&tent), 1.0, 1e-12);
        assert_close(tent.sup_distance(&flat), 1.0, 1e-12);
        assert_eq!(flat.sup_distance(&ValueFunction::default()), f64::INFINITY);
    }

    /// Two witness problems of the paper's node POMDP (horizon-10 solve):
    /// "v0 v1" pairs with the candidate first. Their witness margins,
    /// 2.12e-5 and −1.67e-3 by a breakpoint scan in rational arithmetic, are
    /// pinned next to the LP kernel's
    /// `witness_lps_once_called_unbounded_are_solved`.
    fn candidate_is_kept(vectors: &str) -> bool {
        let v: Vec<f64> = vectors
            .split_whitespace()
            .map(|x| x.parse().unwrap())
            .collect();
        let lines: Vec<[f64; 2]> = v.chunks(2).map(|pair| [pair[0], pair[1]]).collect();
        actions(&envelope(&lines)).contains(&0)
    }

    #[test]
    fn the_envelope_keeps_the_useful_witness_candidate_and_drops_the_dominated_one() {
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
        assert!(candidate_is_kept(useful));
        assert!(!candidate_is_kept(dominated));
    }
}
