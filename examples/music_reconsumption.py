#!/usr/bin/env python
"""Music re-listening: raw event log → STREC switch → TS-PPR pipeline.

The scenario from the paper's Section 5.7: a music service logs raw
listens (some shorter than 30 seconds — dislikes), and wants to surface
"play it again" recommendations only when the user is about to repeat.

1. write a raw Last.fm-style event log with play durations,
2. load it back with the paper's 30-second dislike filter,
3. train the STREC repeat/novel switch (L1-logistic on window features),
4. train TS-PPR for the repeat branch,
5. walk one user's test timeline: at each step, ask STREC whether a
   repeat is coming; when it says yes, show TS-PPR's top-5.

Run: ``python examples/music_reconsumption.py``
"""

import tempfile
from pathlib import Path

from repro import (
    STRECClassifier,
    TSPPRRecommender,
    evaluate_recommender,
    generate_lastfm,
    lastfm_default_config,
    load_event_log,
    temporal_split,
)
from repro.data.loaders import MIN_LISTEN_SECONDS
from repro.synth.lastfm import write_lastfm_event_log
from repro.windows.repeat import candidate_items, is_valid_target


def main() -> None:
    print("1) Writing a raw listening log with sub-30s skips ...")
    source = generate_lastfm(random_state=11, user_factor=0.25)
    with tempfile.TemporaryDirectory() as directory:
        log_path = Path(directory) / "listens.tsv"
        n_rows = write_lastfm_event_log(log_path, source, skip_fraction=0.1,
                                        random_state=13)
        print(f"   {n_rows} raw rows written to {log_path}")

        print("2) Loading with the paper's 30-second dislike filter ...")
        dataset = load_event_log(log_path, name="Lastfm-like",
                                 min_duration=MIN_LISTEN_SECONDS)
    print(f"   {dataset.n_consumptions()} listens kept "
          f"({n_rows - dataset.n_consumptions()} dislikes dropped)")

    split = temporal_split(dataset)
    print(f"   {split.n_users} listeners pass the |W|=100 filter")

    print("3) Training the STREC repeat/novel switch ...")
    strec = STRECClassifier().fit(split)
    switch = strec.evaluate(split)
    print(f"   switch accuracy {switch.accuracy:.3f} "
          f"(base repeat rate {switch.repeat_base_rate:.3f})")
    print(f"   Lasso weights over window features: "
          f"{[round(float(w), 3) for w in strec.coefficients]}")

    print("4) Training TS-PPR for the repeat branch ...")
    model = TSPPRRecommender(
        lastfm_default_config(max_epochs=100_000, seed=2)
    ).fit(split)
    unconditional = evaluate_recommender(model, split)
    print(f"   unconditional MaAP@10 = {unconditional.maap[10]:.3f}")

    print("5) Walking user 0's test timeline (first 3 predicted repeats):")
    sequence = split.full_sequence(0)
    window = model.window_config
    shown = 0
    for t in range(split.train_boundary(0), len(sequence)):
        if not strec.predict_position(sequence, t):
            continue  # novel-item recommender would take over here
        candidates = candidate_items(
            sequence, t, window.window_size, window.min_gap
        )
        if not candidates:
            continue
        top5 = model.recommend(sequence, candidates, t, 5)
        truth = int(sequence[t])
        actually_repeat = is_valid_target(
            sequence, t, window.window_size, window.min_gap
        )
        hit = "HIT " if truth in top5 else ("miss" if actually_repeat else "n/a ")
        print(f"   t={t}: play-again suggestions {top5} "
              f"| actually played {truth} [{hit}]")
        shown += 1
        if shown == 3:
            break


if __name__ == "__main__":
    main()
