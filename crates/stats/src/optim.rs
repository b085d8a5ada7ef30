//! A small, dependency-free Nelder–Mead simplex minimizer used for
//! maximum-likelihood fitting where no closed-form estimator exists.

/// Result of a Nelder–Mead minimization.
#[derive(Debug, Clone)]
pub struct Minimum {
    /// Location of the best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Number of objective evaluations performed.
    pub evals: usize,
    /// Whether the simplex contracted below tolerance before the eval budget.
    pub converged: bool,
}

/// Minimize `f` starting from `x0` using the Nelder–Mead simplex method.
///
/// `scale` sets the initial simplex edge length per dimension (a reasonable
/// default is ~10% of the parameter magnitude). Non-finite objective values
/// are treated as +inf, so callers can encode hard constraints by returning
/// `f64::INFINITY` outside the feasible region.
pub fn nelder_mead<F>(mut f: F, x0: &[f64], scale: &[f64], max_evals: usize) -> Minimum
where
    F: FnMut(&[f64]) -> f64,
{
    assert_eq!(x0.len(), scale.len());
    let n = x0.len();
    assert!(n >= 1, "need at least one dimension");

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    // Build initial simplex: x0 plus n perturbed vertices.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let s = if scale[i] != 0.0 { scale[i] } else { 0.1 };
        v[i] += s;
        simplex.push(v);
    }
    let mut fvals: Vec<f64> = simplex.iter().map(|v| eval(v, &mut evals)).collect();

    // Standard coefficients.
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let mut converged = false;
    while evals < max_evals {
        // Order vertices by objective value.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| fvals[a].total_cmp(&fvals[b]));
        let best = idx[0];
        let worst = idx[n];
        let second_worst = idx[n - 1];

        // Convergence: small spread of objective values and simplex size.
        let spread = fvals[worst] - fvals[best];
        let size: f64 = (0..n)
            .map(|d| (simplex[worst][d] - simplex[best][d]).abs())
            .fold(0.0, f64::max);
        if spread.abs() < 1e-12 * (1.0 + fvals[best].abs()) && size < 1e-10 {
            converged = true;
            break;
        }

        // Centroid of all but worst.
        let mut centroid = vec![0.0; n];
        for (i, v) in simplex.iter().enumerate() {
            if i != worst {
                for d in 0..n {
                    centroid[d] += v[d];
                }
            }
        }
        for c in centroid.iter_mut() {
            *c /= n as f64;
        }

        let point = |coef: f64| -> Vec<f64> {
            (0..n)
                .map(|d| centroid[d] + coef * (centroid[d] - simplex[worst][d]))
                .collect()
        };

        // Reflection.
        let xr = point(ALPHA);
        let fr = eval(&xr, &mut evals);
        if fr < fvals[best] {
            // Expansion.
            let xe = point(GAMMA);
            let fe = eval(&xe, &mut evals);
            if fe < fr {
                simplex[worst] = xe;
                fvals[worst] = fe;
            } else {
                simplex[worst] = xr;
                fvals[worst] = fr;
            }
        } else if fr < fvals[second_worst] {
            simplex[worst] = xr;
            fvals[worst] = fr;
        } else {
            // Contraction (outside if reflected point improved on worst).
            let (xc, fc) = if fr < fvals[worst] {
                let xc = point(ALPHA * RHO);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            } else {
                let xc = point(-RHO);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            };
            if fc < fvals[worst].min(fr) {
                simplex[worst] = xc;
                fvals[worst] = fc;
            } else {
                // Shrink toward best.
                let best_v = simplex[best].clone();
                for i in 0..=n {
                    if i == best {
                        continue;
                    }
                    for d in 0..n {
                        simplex[i][d] = best_v[d] + SIGMA * (simplex[i][d] - best_v[d]);
                    }
                    fvals[i] = eval(&simplex[i].clone(), &mut evals);
                }
            }
        }
    }

    let mut best_i = 0;
    for i in 1..=n {
        if fvals[i] < fvals[best_i] {
            best_i = i;
        }
    }
    Minimum {
        x: simplex[best_i].clone(),
        fx: fvals[best_i],
        evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let m = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.5).powi(2),
            &[0.0, 0.0],
            &[0.5, 0.5],
            2000,
        );
        assert!((m.x[0] - 3.0).abs() < 1e-5, "{:?}", m);
        assert!((m.x[1] + 1.5).abs() < 1e-5, "{:?}", m);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let m = nelder_mead(
            |x| {
                let a = 1.0 - x[0];
                let b = x[1] - x[0] * x[0];
                a * a + 100.0 * b * b
            },
            &[-1.2, 1.0],
            &[0.1, 0.1],
            20_000,
        );
        assert!((m.x[0] - 1.0).abs() < 1e-3, "{:?}", m);
        assert!((m.x[1] - 1.0).abs() < 1e-3, "{:?}", m);
    }

    #[test]
    fn respects_infinite_barrier() {
        // Constrain x > 0 via +inf barrier; minimum of (x-(-2))^2 on x>0 is x→0.
        let m = nelder_mead(
            |x| {
                if x[0] <= 0.0 {
                    f64::INFINITY
                } else {
                    (x[0] + 2.0).powi(2)
                }
            },
            &[1.0],
            &[0.3],
            5000,
        );
        assert!(m.x[0] > 0.0);
        assert!(m.x[0] < 1e-3, "{:?}", m);
    }

    #[test]
    fn one_dimensional() {
        let m = nelder_mead(|x| (x[0] - 7.0).powi(2) + 2.0, &[0.0], &[1.0], 2000);
        assert!((m.x[0] - 7.0).abs() < 1e-5);
        assert!((m.fx - 2.0).abs() < 1e-9);
    }
}
