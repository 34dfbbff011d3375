"""Semi-high-dimensional regime: semicircle fluctuations.

When p^2 >> n the centered, rescaled matrix E = sqrt(n/p) (M - alpha_p
sigma^2 I) has an approximately semicircular spectrum. The predicted variance
is sigma^4 E[K(X1,X2) K(X1,X3)], the pair moment of the kernel. At desk scale
the spectrum also carries a small deterministic mean offset of order
sqrt(n)/p, which the runner reports along with the KS distance against the
shifted law.

Sizes here are reduced from the headline geometry to keep the demo fast.

Run:  python3 demos/04_semicircle_regime.py
"""

from rmtlab import harness


def main():
    rep = harness.semicircle_experiment(
        p=200, n=6000, kernel_variant="indicator", kernel_z_alpha=0.0,
        trials=2, seed=0, out_dir="demo_out/semicircle")
    params = rep["law_params"]
    print(f"alpha_p = {params['alpha_p']:.4f}, "
          f"pair moment E[A12 A13] = {params['pair_moment']:.4f}")
    print(f"predicted SC variance = {params['variance']:.4f}")
    print(f"pooled KS vs SC: {rep['pooled_ks']:.4f}")
    print(f"predicted mean shift {rep['predicted_mean_shift']:+.4f}; "
          f"KS vs shifted SC: {rep['pooled_ks_shifted']:.4f}")

    rep2 = harness.semicircle_experiment(
        p=200, n=6000, kernel_variant="constant", trials=2, seed=0,
        out_dir="demo_out/semicircle_constant")
    print(f"\nconstant-kernel control (pure sample covariance fluctuations): "
          f"KS = {rep2['pooled_ks']:.4f} vs SC(sigma^4)")


if __name__ == "__main__":
    main()
