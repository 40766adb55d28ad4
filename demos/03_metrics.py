"""Answer normalization, F1/EM scoring, and the question-category report.

Run from the repository root: python3 demos/03_metrics.py
"""

from spanqa.data import QAExample, tokenize
from spanqa.metrics import categorize_question, evaluate, f1_score, normalize_answer

# %%
# Normalization lowercases, strips punctuation, and drops articles.

print(normalize_answer("The Late Show"))
print(normalize_answer("the most giving Super Bowl ever"))

# %%
# F1 works on token multisets; EM needs the normalized strings to agree.

stats = f1_score("giving super bowl ever", "the most giving Super Bowl ever")
print(f"P={stats.precision:.3f} R={stats.recall:.3f} F1={stats.f1:.3f} "
      f"EM={stats.em}")
print("EM of 'the late show' against 'The Late Show' =",
      f1_score("the late show", "The Late Show").em)

# %%
# Questions are binned by the first keyword in a fixed Who..How order.

for question in ("Who had a 12-yard rush on this drive?",
                 "How much time was left in the quarter...",
                 "Name the stadium."):
    print(f"{categorize_question(question):>6}: {question}")

# %%
# evaluate() takes qid->answer predictions and scores each question as the
# max over its ground-truth answers.

examples = [
    QAExample("q1", "", [], "Who won the game?", tokenize("Who won the game?"),
              ["Denver Broncos", "the Broncos", "Broncos"]),
    QAExample("q2", "", [], "Where was it played?", tokenize("Where was it played?"),
              ["Santa Clara", "Levi's Stadium"]),
]
report = evaluate({"q1": "the broncos", "q2": "San Jose"}, examples)
print(f"overall F1 {report.f1:.1f}  EM {report.em:.1f}")
for category, (f1, em, count) in report.per_category.items():
    if count:
        print(f"  {category:<6} F1 {f1:6.1f}  EM {em:6.1f}  n={count}")
