"""Smart-span decoding versus the raw product baseline.

The smart-span score divides p_start * p_end by log(length) + 1, so when a
short and a long span have similar products, the short one wins.

Run from the repository root: python3 demos/02_span_decoding.py
"""

import numpy as np

from spanqa.spans import best_span, raw_product_span

p_start = np.array([0.45, 0.35, 0.20])
p_end = np.array([0.10, 0.55, 0.35])
mask = np.ones(3)

# %%
# The raw product prefers the two-token span (0,1); the length penalty flips
# the decision to the single token (1,1).

raw = raw_product_span(p_start, p_end, mask, max_len=3)
smart = best_span(p_start, p_end, mask, max_len=3)
print(f"raw product picks ({raw.start},{raw.end}) with product {raw.score:.4f}")
print(f"smart span picks  ({smart.start},{smart.end}) with score {smart.score:.4f}")

# %%
# The prediction holds token positions; span_text reads the answer string
# they cover out of the original text, in its original case.

from spanqa.data import tokenize
from spanqa.spans import span_text

text = "The Late Show with Stephen Colbert aired after the game."
tokens = tokenize(text)
one_hot_s = np.zeros(len(tokens))
one_hot_e = np.zeros(len(tokens))
one_hot_s[0], one_hot_e[5] = 1.0, 1.0
pred = best_span(one_hot_s, one_hot_e, np.ones(len(tokens)))
print("reconstructed answer:", repr(span_text(tokens, text, pred.start, pred.end)))
