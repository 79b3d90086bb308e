// Package repro is a from-scratch Go reproduction of "Closing the Gap
// Between Cache-oblivious and Cache-adaptive Analysis" (Bender, Chowdhury,
// Das, Johnson, Kuszmaul, Lincoln, Liu, Lynch, Xu — SPAA 2020).
//
// The repository builds the paper's entire object of study as an executable
// system: the cache-adaptive model with square memory profiles, the
// (a,b,c)-regular algorithm framework and its simplified caching model, the
// adversarial worst-case profile of Figure 1, the four smoothing operators
// (i.i.d. box sizes, size perturbation, start-time shift, box-order
// perturbation), a block-trace/paging ground-truth backend with real
// matrix-multiplication and dynamic-programming workloads, and the
// measurement layer for the efficiency criterion and the stopping-time
// recurrences at the heart of the main theorem.
//
// Layout:
//
//	internal/profile     square profiles, M_{a,b}(n), profile generators
//	internal/regular     (a,b,c)-regular specs + the symbolic executor
//	internal/trace       block-reference traces
//	internal/paging      square-semantics cache, LRU, FIFO, Belady OPT
//	internal/adaptivity  gap measurement, f(n)/f'(n), Lemma-3/Eq-6-8 checks
//	internal/smoothing   the four smoothings (incl. the aligned S4 witness)
//	internal/matrix      real MM-Scan / MM-InPlace / Strassen + traces
//	internal/dp          LCS & edit distance, classic and (4,2,1)-recursive
//	internal/gep         GEP Floyd-Warshall, copying and in-place + traces
//	internal/sorting     two-way merge sort (the a = b boundary) + traces
//	internal/memsort     Barve-Vitter-style explicitly adaptive sorting model
//	internal/sharedcache the intro's multi-tenant cache-contention generator
//	internal/core        experiments E1–E13, ablations A1–A7, formatting
//	cmd/cadaptive        run experiments
//	cmd/profilegen       generate/render profiles
//	cmd/mmtrace          matrix-multiply trace tooling
//	examples/...         quickstart, worstcase, smoothing, multicore,
//	                     stoppingtimes
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
