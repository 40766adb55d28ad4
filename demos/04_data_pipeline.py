"""Tokenization with character offsets, answer alignment, and batching.

Run from the repository root: python3 demos/04_data_pipeline.py
"""

from pathlib import Path

from spanqa.data import (align_answer, build_batches, dataset_stats, load_glove,
                         load_squad, tokenize)

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

# %%
# The tokenizer lowercases, peels leading/trailing punctuation into their own
# tokens (quotes survive), and keeps interior punctuation such as 11:28.

for text in ('"the most"', "score to 10-7 with 11:28 left"):
    print(text, "->", [t.text for t in tokenize(text)])

# %%
# Character-offset answers map to the smallest covering token range.

context = "while Jonathan Stewart finished the drive, cutting the score to 10-7"
tokens = tokenize(context)
span = align_answer(tokens, "10-7", context.index("10-7"))
print("aligned span:", span, "->", [t.text for t in tokens[span[0]:span[1] + 1]])

# %%
# Loading the bundled 32-example fixture and batching it.

examples = load_squad(FIXTURES / "tiny_squad.json")
table = load_glove(FIXTURES / "tiny_glove.txt", dim=32)
stats = dataset_stats(examples)
print(f"{stats.example_count} examples; "
      f"answers<20 tokens {100 * stats.answer_under_20_fraction:.0f}%, "
      f"contexts<300 tokens {100 * stats.context_under_300_fraction:.0f}%")

batches = build_batches(examples, table, batch_size=8)
first = batches[0]
print(f"{len(batches)} batches; first has context ids {first.context_ids.shape}, "
      f"mask row sums {first.context_mask.sum(axis=1).astype(int).tolist()}")
