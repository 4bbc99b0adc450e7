#!/usr/bin/env bash
# Merge the BENCH_*.json artifacts at the repo root into one performance
# trajectory table and append it to EXPERIMENTS.md.
#
#   cargo bench -p matsciml-bench --bench fwdbwd           # BENCH_fwdbwd.json
#   cargo bench -p matsciml-bench --bench overlap          # BENCH_overlap.json
#   cargo bench -p matsciml-bench --bench message_passing  # BENCH_msgpass.json
#   cargo bench -p matsciml-bench --bench simd              # BENCH_simd.json
#   cargo bench -p matsciml-bench --bench serve             # BENCH_serve.json
#   cargo bench -p matsciml-bench --bench stream            # BENCH_stream.json
#   cargo bench -p matsciml-bench --bench infer             # BENCH_infer.json
#   cargo bench -p matsciml-bench --bench pipeline          # BENCH_pipeline.json
#   ./scripts/bench_report.sh
#
# Idempotent: the generated section lives between marker comments and is
# replaced wholesale on re-run, so stale rows never accumulate.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "bench_report: jq required" >&2; exit 1; }

BEGIN_MARK='<!-- bench-trajectory:begin -->'
END_MARK='<!-- bench-trajectory:end -->'

rows=""
add_row() { rows+="| $1 | $2 | $3 | $4 | $5 | $6 |"$'\n'; }

# Cumulative speedup vs the original seed hot path: each optimized arm
# already contains every earlier PR's gains, so later rows multiply
# their own speedup by the chain they stand on (fwdbwd for the rank-step
# schedulers, msgpass-vs-seed for the single-rank kernel tiers).
mul() { jq -n --argjson a "$1" --argjson b "$2" '$a * $b * 100 | round / 100'; }

if [[ -f BENCH_fwdbwd.json ]]; then
  add_row "fwdbwd (1 rank, hidden $(jq -r .hidden BENCH_fwdbwd.json))" \
    "seed → pooled+fused" \
    "$(jq -r '.seed.steps_per_sec | . * 100 | round / 100' BENCH_fwdbwd.json)" \
    "$(jq -r '.pooled.steps_per_sec | . * 100 | round / 100' BENCH_fwdbwd.json)" \
    "$(jq -r '.speedup | . * 100 | round / 100' BENCH_fwdbwd.json)x" \
    "$(jq -r '.speedup | . * 100 | round / 100' BENCH_fwdbwd.json)x"
fi

if [[ -f BENCH_overlap.json ]]; then
  gate=$(jq -r 'if .speedup_asserted then "" else " (\(.threads) threads: gate off)" end' BENCH_overlap.json)
  cum_overlap="—"
  if [[ -f BENCH_fwdbwd.json ]]; then
    cum_overlap="$(mul "$(jq .speedup BENCH_overlap.json)" "$(jq .speedup BENCH_fwdbwd.json)")x"
  fi
  add_row "overlap (world $(jq -r .world BENCH_overlap.json), hidden $(jq -r .hidden BENCH_overlap.json))" \
    "sequential → overlapped$gate" \
    "$(jq -r '.sequential_steps_per_sec | . * 100 | round / 100' BENCH_overlap.json)" \
    "$(jq -r '.overlapped_steps_per_sec | . * 100 | round / 100' BENCH_overlap.json)" \
    "$(jq -r '.speedup | . * 100 | round / 100' BENCH_overlap.json)x" \
    "$cum_overlap"
fi

if [[ -f BENCH_msgpass.json ]]; then
  add_row "message passing (1 rank, hidden $(jq -r .hidden BENCH_msgpass.json), $(jq -r .edges BENCH_msgpass.json) edges)" \
    "seed → fused edge pipeline" \
    "$(jq -r '.seed.steps_per_sec | . * 100 | round / 100' BENCH_msgpass.json)" \
    "$(jq -r '.fused.steps_per_sec | . * 100 | round / 100' BENCH_msgpass.json)" \
    "$(jq -r '.speedup_vs_seed | . * 100 | round / 100' BENCH_msgpass.json)x" \
    "$(jq -r '.speedup_vs_seed | . * 100 | round / 100' BENCH_msgpass.json)x"
  add_row "message passing (edge lowering only)" \
    "generic pooled → fused" \
    "$(jq -r '.baseline.steps_per_sec | . * 100 | round / 100' BENCH_msgpass.json)" \
    "$(jq -r '.fused.steps_per_sec | . * 100 | round / 100' BENCH_msgpass.json)" \
    "$(jq -r '.speedup_vs_baseline | . * 100 | round / 100' BENCH_msgpass.json)x" \
    "—"
fi

if [[ -f BENCH_simd.json ]]; then
  # The scalar arm of the simd bench already runs the fused + pooled
  # pipeline, so its gain compounds on the msgpass-vs-seed chain.
  cum_simd="$(jq -r '.speedup | . * 100 | round / 100' BENCH_simd.json)x"
  if [[ -f BENCH_msgpass.json ]]; then
    cum_simd="$(mul "$(jq .speedup BENCH_simd.json)" "$(jq .speedup_vs_seed BENCH_msgpass.json)")x"
  fi
  add_row "simd (1 rank, hidden $(jq -r .hidden BENCH_simd.json))" \
    "scalar kernels → simd lanes" \
    "$(jq -r '.scalar.steps_per_sec | . * 100 | round / 100' BENCH_simd.json)" \
    "$(jq -r '.simd.steps_per_sec | . * 100 | round / 100' BENCH_simd.json)" \
    "$(jq -r '.speedup | . * 100 | round / 100' BENCH_simd.json)x" \
    "$cum_simd"
fi

if [[ -f BENCH_serve.json ]]; then
  # Serving measures requests/s, not steps/s, and its baseline (batch-of-
  # one serving) is not the seed training path — no cumulative column.
  sat=$(jq '.loads | max_by(.clients)' BENCH_serve.json)
  add_row "serve ($(jq -r '.single.requests' <<<"$sat") reqs, $(jq -r .workers BENCH_serve.json) workers, $(jq '.clients' <<<"$sat") clients)" \
    "single → batched (req/s)" \
    "$(jq -r '.single.throughput_rps * 100 | round / 100' <<<"$sat")" \
    "$(jq -r '.batched.throughput_rps * 100 | round / 100' <<<"$sat")" \
    "$(jq -r '.speedup * 100 | round / 100' <<<"$sat")x" \
    "—"
fi

if [[ -f BENCH_stream.json ]]; then
  # Streaming trades nothing for bounded memory: the arms compare the
  # sharded on-demand pipeline against materializing the whole corpus,
  # so the headline is the RSS ratio alongside near-parity throughput.
  rss=$(jq -r '.rss_ratio * 1000 | round / 10' BENCH_stream.json)
  add_row "stream ($(jq -r .corpus_samples BENCH_stream.json) structures, $(jq -r .shards BENCH_stream.json) shards)" \
    "in-memory → streamed (samples/s, RSS ${rss}%)" \
    "$(jq -r '.in_memory.samples_per_sec | round' BENCH_stream.json)" \
    "$(jq -r '.streamed.samples_per_sec | round' BENCH_stream.json)" \
    "$(jq -r '.throughput_ratio * 100 | round / 100' BENCH_stream.json)x" \
    "—"
fi

if [[ -f BENCH_infer.json ]]; then
  # Reduced-precision serving: both arms are the batched server under
  # identical load; only the precision differs. The f16 arm is the
  # headline (it carries the 1.4x acceptance gate); tolerance is part of
  # the bench's own asserts, not re-checked here.
  add_row "infer ($(jq -r .clients BENCH_infer.json) clients, hidden $(jq -r .hidden BENCH_infer.json), max rel err $(jq -r '.arms[1].worst_rel_error' BENCH_infer.json))" \
    "f32 → f16 serving (req/s)" \
    "$(jq -r '.arms[0].median_rps * 100 | round / 100' BENCH_infer.json)" \
    "$(jq -r '.arms[1].median_rps * 100 | round / 100' BENCH_infer.json)" \
    "$(jq -r '.f16_speedup * 100 | round / 100' BENCH_infer.json)x" \
    "—"
fi

if [[ -f BENCH_pipeline.json ]]; then
  # The batch pipeline measures data-path delivery (decode + transform +
  # collate per optimizer-step batch set), not whole training steps — the
  # compute side is untouched by construction, so no cumulative column.
  add_row "pipeline ($(jq -r .atoms_per_structure BENCH_pipeline.json)-atom structures, $(jq -r .epochs BENCH_pipeline.json) epochs, cache alone $(jq -r '.speedup_cached * 100 | round / 100' BENCH_pipeline.json)x)" \
    "all-recompute → precomputed+cached (batch sets/s)" \
    "$(jq -r '.off_steps_per_sec | round' BENCH_pipeline.json)" \
    "$(jq -r '.on_steps_per_sec | round' BENCH_pipeline.json)" \
    "$(jq -r '.speedup * 100 | round / 100' BENCH_pipeline.json)x" \
    "—"
fi

[[ -n "$rows" ]] || { echo "bench_report: no BENCH_*.json artifacts found" >&2; exit 1; }

section=$(cat <<EOF
$BEGIN_MARK
## Performance trajectory (generated)

One row per \`BENCH_*.json\` artifact at the repo root — the headline
baseline-vs-optimized throughput of each hot-path PR, regenerated by
\`./scripts/bench_report.sh\` after \`cargo bench\`. Every arm pair is
asserted bit-identical by its bench before timing is trusted. The last
column compounds each optimized arm's gain with the chain of earlier
PRs it builds on, relative to the original seed hot path ("—" where the
bench measures an axis that does not compose with the seed baseline).

| bench | arms | baseline steps/s | optimized steps/s | speedup | cumulative vs seed |
|---|---|--:|--:|--:|--:|
$rows$END_MARK
EOF
)

# Drop any previous generated section, then append the fresh one.
if grep -qF "$BEGIN_MARK" EXPERIMENTS.md; then
  awk -v b="$BEGIN_MARK" -v e="$END_MARK" '
    index($0, b) { skip = 1 }
    !skip { print }
    index($0, e) { skip = 0 }
  ' EXPERIMENTS.md >EXPERIMENTS.md.tmp
  # Trim trailing blank lines left behind by the removal.
  printf '%s\n' "$(cat EXPERIMENTS.md.tmp)" >EXPERIMENTS.md
  rm -f EXPERIMENTS.md.tmp
fi
printf '\n%s\n' "$section" >>EXPERIMENTS.md
echo "bench_report: wrote trajectory table ($(printf '%s' "$rows" | wc -l | tr -d ' ') rows) to EXPERIMENTS.md"
