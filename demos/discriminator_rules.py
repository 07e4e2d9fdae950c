"""Swapping the labeling rule applied to projected values.

After training, classification happens on a line.  The default rule
thresholds at the midpoint of the projected centers; this script fits
the two alternatives (nearest stored neighbor, and an exact 1-D SVM on
rescaled values) and compares them on a held-out split.
"""

import numpy as np

from lcckit import (apply_normalizer, discriminate, fit_discriminator,
                    fit_normalizer, gen_gaussian_pair, stratified_split,
                    train_lcc)

data = gen_gaussian_pair((0, 0), np.eye(2), (1.8, 1.4),
                         [[1.0, 0.3], [0.3, 1.0]], 150, seed=5)
train, test = stratified_split(data, 0.7, seed=5)
norm = fit_normalizer(train)
train = apply_normalizer(norm, train)
test = apply_normalizer(norm, test)

model = train_lcc(train)
projected_train = model.transform(train.features)
projected_test = model.transform(test.features)

for kind in ("dist", "one_nn", "one_sv"):
    rule = fit_discriminator(kind, projected_train, train.labels, model)
    acc_train = np.mean(discriminate(rule, projected_train) == train.labels)
    acc_test = np.mean(discriminate(rule, projected_test) == test.labels)
    print(f"{kind:7s} train {acc_train:.4f}  test {acc_test:.4f}")

# the dist rule is exactly the model's own midpoint threshold
rule = fit_discriminator("dist", projected_train, train.labels, model)
print(f"\ndist threshold {rule.threshold:.6f} == model midpoint "
      f"{model.l_hat:.6f}")
