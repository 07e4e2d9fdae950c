"""Two overlapping Gaussians, before and after training.

The classifier picks a projection direction so that every training
point lands near its own class center on the line, with the two
projected centers pushed apart.  This script compares that direction
against simply projecting onto the raw center difference.
"""

import numpy as np

from lcckit import (apply_normalizer, class_centers, demo_gaussian_pair,
                    fit_normalizer, roc_auc, train_lcc)

data = demo_gaussian_pair()          # 200 points per class, seed 42
norm = fit_normalizer(data)
ready = apply_normalizer(norm, data)

# naive direction: the difference of the class centers, scaled into the
# coefficient box the trainer itself uses
c_neg, c_pos = class_centers(ready)
beta0 = (c_pos - c_neg) / np.abs(c_pos - c_neg).max()
naive = ready.features @ beta0

model = train_lcc(ready)
trained = model.transform(ready.features)

for name, values in (("naive", naive), ("trained", trained)):
    lo_pos = values[ready.labels == 1].min()
    hi_neg = values[ready.labels == -1].max()
    print(f"{name:8s} negative max {hi_neg:8.4f}   positive min {lo_pos:8.4f}"
          f"   gap {lo_pos - hi_neg:8.4f}")

labels = model.predict(ready.features)
auc = roc_auc(model.score(ready.features), ready.labels).auc
print(f"train accuracy {np.mean(labels == ready.labels):.4f}, AUC {auc:.4f}")
print(f"projected centers {model.c_neg_hat:.4f} and {model.c_pos_hat:.4f}, "
      f"threshold {model.l_hat:.4f}")
