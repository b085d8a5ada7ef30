#!/bin/sh
# Regenerate every table and figure of the paper (full fidelity).
# Outputs land in results/.
set -e
mkdir -p results
for exp in table1 table2 table3 fig4 fig5 fig6 fig7 \
           fig10_baseline fig11_update_delay fig12_nonoptimal \
           partial_participation fig13_bursty throughput production \
           ablation_distance_weight ablation_decay ablation_projection \
           ablation_dispatch ablation_cache_ttl \
           hierarchy_isolation local_autonomy; do
    echo "== $exp"
    cargo run --release -q -p aequus-bench -- "$exp" > "results/$exp.txt" 2>"results/$exp.log"
done
echo "all experiments done"
