//! A minimal multi-layer perceptron with manual backpropagation and Adam.
//!
//! The PPO baseline of the paper (Table 2) uses a small feed-forward policy
//! network (4 layers of 64 ReLU neurons, Appendix E). To keep the workspace
//! dependency-free we implement the needed pieces here: dense layers, ReLU,
//! softmax, gradient accumulation and the Adam update rule.

use crate::cem::sample_standard_normal;
use rand::RngCore;

/// One dense (fully connected) layer: `y = W x + b`.
#[derive(Debug, Clone)]
struct DenseLayer {
    /// Row-major weights, `outputs x inputs`.
    pub weights: Vec<f64>,
    /// Bias vector of length `outputs`.
    pub biases: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl DenseLayer {
    /// Creates a layer with He-initialized weights.
    pub fn new<R: RngCore + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        let scale = (2.0 / inputs.max(1) as f64).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| scale * sample_standard_normal(rng))
            .collect();
        DenseLayer {
            weights,
            biases: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    /// Applies the affine map to `x`.
    pub(crate) fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        let mut out = self.biases.clone();
        for (o, value) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            *value += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>();
        }
        out
    }
}

/// Gradients for one dense layer, same shapes as the parameters.
#[derive(Debug, Clone)]
struct DenseGradient {
    weights: Vec<f64>,
    biases: Vec<f64>,
}

/// A multi-layer perceptron with ReLU hidden activations and a linear output
/// layer.
#[derive(Debug, Clone)]
pub(crate) struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Cached activations from a forward pass, required for backpropagation.
#[derive(Debug, Clone)]
pub(crate) struct ForwardCache {
    /// Layer inputs: `inputs[0]` is the network input, `inputs[i]` the
    /// post-activation output of layer `i-1`.
    inputs: Vec<Vec<f64>>,
    /// Pre-activation outputs of each layer.
    pre_activations: Vec<Vec<f64>>,
}

impl ForwardCache {
    /// The network output (linear, no activation on the last layer).
    pub fn output(&self) -> &[f64] {
        self.pre_activations.last().expect("at least one layer")
    }
}

/// Accumulated gradients for a whole [`Mlp`].
#[derive(Debug, Clone)]
pub(crate) struct MlpGradient {
    layers: Vec<DenseGradient>,
    /// Number of samples accumulated, used to average before the update.
    count: usize,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[4, 64, 64, 2]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: RngCore + ?Sized>(sizes: &[usize], rng: &mut R) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .map(|w| DenseLayer::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Output dimension.
    fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").outputs
    }

    /// Forward pass returning the output and the cache needed for
    /// backpropagation.
    pub(crate) fn forward(&self, x: &[f64]) -> ForwardCache {
        let mut inputs = vec![x.to_vec()];
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut current = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(&current);
            pre_activations.push(pre.clone());
            current = if i + 1 == self.layers.len() {
                pre
            } else {
                pre.iter().map(|&v| v.max(0.0)).collect()
            };
            if i + 1 != self.layers.len() {
                inputs.push(current.clone());
            }
        }
        ForwardCache {
            inputs,
            pre_activations,
        }
    }

    /// Convenience forward pass returning only the output vector.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.forward(x).output().to_vec()
    }

    /// Creates a zeroed gradient accumulator matching this network.
    pub(crate) fn zero_gradient(&self) -> MlpGradient {
        MlpGradient {
            layers: self
                .layers
                .iter()
                .map(|l| DenseGradient {
                    weights: vec![0.0; l.weights.len()],
                    biases: vec![0.0; l.biases.len()],
                })
                .collect(),
            count: 0,
        }
    }

    /// Backpropagates `output_gradient` (dLoss/dOutput) through the cached
    /// forward pass, accumulating parameter gradients into `gradient`.
    pub(crate) fn backward(
        &self,
        cache: &ForwardCache,
        output_gradient: &[f64],
        gradient: &mut MlpGradient,
    ) {
        assert_eq!(
            output_gradient.len(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        let mut delta = output_gradient.to_vec();
        for (layer_index, layer) in self.layers.iter().enumerate().rev() {
            // For hidden layers the incoming delta is w.r.t. the
            // post-activation output; fold in the ReLU derivative.
            if layer_index + 1 != self.layers.len() {
                for (d, &pre) in delta.iter_mut().zip(&cache.pre_activations[layer_index]) {
                    if pre <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let input = &cache.inputs[layer_index];
            let grad = &mut gradient.layers[layer_index];
            for (o, &d) in delta.iter().enumerate().take(layer.outputs) {
                grad.biases[o] += d;
                let row = &mut grad.weights[o * layer.inputs..(o + 1) * layer.inputs];
                for (w, &x) in row.iter_mut().zip(input) {
                    *w += d * x;
                }
            }
            // Propagate to the previous layer.
            if layer_index > 0 {
                let mut next_delta = vec![0.0; layer.inputs];
                for (o, &d) in delta.iter().enumerate().take(layer.outputs) {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (nd, &w) in next_delta.iter_mut().zip(row) {
                        *nd += d * w;
                    }
                }
                delta = next_delta;
            }
        }
        gradient.count += 1;
    }
}

/// The Adam update rule with bias correction.
#[derive(Debug, Clone)]
pub(crate) struct AdamOptimizer {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: u64,
    first_moment: Vec<Vec<f64>>,
    second_moment: Vec<Vec<f64>>,
}

impl AdamOptimizer {
    /// Creates an Adam optimizer for the given network.
    pub fn new(network: &Mlp, learning_rate: f64) -> Self {
        let shapes: Vec<usize> = network
            .layers
            .iter()
            .flat_map(|l| [l.weights.len(), l.biases.len()])
            .collect();
        AdamOptimizer {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            first_moment: shapes.iter().map(|&n| vec![0.0; n]).collect(),
            second_moment: shapes.iter().map(|&n| vec![0.0; n]).collect(),
        }
    }

    /// Applies one Adam step using the averaged gradients in `gradient`.
    pub fn apply(&mut self, network: &mut Mlp, gradient: &MlpGradient) {
        if gradient.count == 0 {
            return;
        }
        self.step += 1;
        let scale = 1.0 / gradient.count as f64;
        let bias1 = 1.0 - self.beta1.powi(self.step as i32);
        let bias2 = 1.0 - self.beta2.powi(self.step as i32);
        for (layer_index, layer) in network.layers.iter_mut().enumerate() {
            let params: [(&mut Vec<f64>, &Vec<f64>, usize); 2] = [
                (
                    &mut layer.weights,
                    &gradient.layers[layer_index].weights,
                    2 * layer_index,
                ),
                (
                    &mut layer.biases,
                    &gradient.layers[layer_index].biases,
                    2 * layer_index + 1,
                ),
            ];
            for (values, grads, moment_index) in params {
                let m = &mut self.first_moment[moment_index];
                let v = &mut self.second_moment[moment_index];
                for i in 0..values.len() {
                    let g = grads[i] * scale;
                    m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                    v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                    let m_hat = m[i] / bias1;
                    let v_hat = v[i] / bias2;
                    values[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
                }
            }
        }
    }
}

/// Numerically stable softmax.
pub(crate) fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&[3, 8, 2], &mut rng);
        assert_eq!(net.output_dim(), 2);
        let out = net.predict(&[0.1, -0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 999.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[2]);
    }

    #[test]
    fn backprop_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Mlp::new(&[2, 5, 1], &mut rng);
        let x = vec![0.4, -0.7];
        // Loss = 0.5 * output^2, dLoss/dOutput = output.
        let cache = net.forward(&x);
        let out = cache.output()[0];
        let mut grad = net.zero_gradient();
        net.backward(&cache, &[out], &mut grad);

        // Finite-difference check on a few weights of the first layer.
        let eps = 1e-6;
        for idx in [0usize, 3, 7] {
            let mut plus = net.clone();
            plus.layers[0].weights[idx] += eps;
            let mut minus = net.clone();
            minus.layers[0].weights[idx] -= eps;
            let loss = |n: &Mlp| 0.5 * n.predict(&x)[0].powi(2);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grad.layers[0].weights[idx];
            assert!(
                (numeric - analytic).abs() < 1e-4,
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn adam_reduces_regression_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::new(&[1, 16, 1], &mut rng);
        let mut adam = AdamOptimizer::new(&net, 0.01);
        // Fit y = 2x - 1 on [0, 1].
        let data: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64 / 49.0;
                (x, 2.0 * x - 1.0)
            })
            .collect();
        let loss = |net: &Mlp| -> f64 {
            data.iter()
                .map(|&(x, y)| (net.predict(&[x])[0] - y).powi(2))
                .sum::<f64>()
                / data.len() as f64
        };
        let initial = loss(&net);
        for _ in 0..300 {
            let mut grad = net.zero_gradient();
            for &(x, y) in &data {
                let cache = net.forward(&[x]);
                let err = cache.output()[0] - y;
                net.backward(&cache, &[2.0 * err], &mut grad);
            }
            adam.apply(&mut net, &grad);
        }
        let final_loss = loss(&net);
        assert!(
            final_loss < initial * 0.1,
            "loss {final_loss} did not improve from {initial}"
        );
        assert!(final_loss < 0.05);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_requires_two_sizes() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&[3], &mut rng);
    }
}
