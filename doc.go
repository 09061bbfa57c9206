// Package repro is a from-scratch Go reproduction of "Fault-tolerant and
// Transactional Stateful Serverless Workflows" (Beldi, OSDI 2020).
//
// The public API lives in package repro/beldi; the substrates (a sharded
// in-memory DynamoDB-like store with a group-commit write path, a
// goroutine-based serverless platform, and a durable message-queue
// subsystem with durable timers) and the Beldi core (linked DAAL,
// intent/garbage collectors, cross-SSF transactions) live under internal/.
// The benchmarks in bench_test.go and the cmd/figures binary regenerate
// every table and figure of the paper's evaluation; see ARCHITECTURE.md for
// the layer map and protocol lifecycles, README.md for the system
// inventory, and EXPERIMENTS.md for paper-versus-measured results.
package repro
