"""Nonlinear boundaries with the kernelized trainer.

Concentric rings and interleaved spirals defeat any linear rule.  The
kernel variant trains the same kind of program over similarity-to-
training-point coordinates; with an RBF kernel it separates both.
"""

import numpy as np

from lcckit import (KernelSpec, apply_normalizer, fit_normalizer, gen_shape,
                    median_pairwise_distance, stratified_split, train_klcc)

print(f"{'shape':10s} {'kernel':14s} {'train':>7s} {'test':>7s}")
for shape in ("circles", "spiral", "jain_like"):
    data = gen_shape(shape, 300, noise=0.03, seed=0)
    train, test = stratified_split(data, 0.7, seed=0)
    norm = fit_normalizer(train)
    train = apply_normalizer(norm, train)
    test = apply_normalizer(norm, test)

    # narrow widths matter here: a kernel wide enough to blur across
    # the gap between arms cannot tell the classes apart
    width = median_pairwise_distance(train.features) / 8.0
    for spec in (KernelSpec("linear"), KernelSpec("rbf", width)):
        model = train_klcc(train, spec)
        acc_tr = np.mean(model.predict(train.features) == train.labels)
        acc_te = np.mean(model.predict(test.features) == test.labels)
        label = spec.kind if spec.rbf_width is None \
            else f"rbf w={spec.rbf_width:.3f}"
        print(f"{shape:10s} {label:14s} {acc_tr:7.4f} {acc_te:7.4f}")
