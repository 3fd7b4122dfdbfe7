// Package tofumd is a from-scratch Go reproduction of "Enhance the Strong
// Scaling of LAMMPS on Fugaku" (Li et al., SC '23): a LAMMPS-style
// molecular-dynamics engine whose ghost-region communication runs over a
// simulated Fugaku — a TofuD 6D-torus fabric with six TNIs per node, a
// uTofu-style one-sided interface, and an MPI-style layer — so the paper's
// communication optimizations (coarse- and fine-grained peer-to-peer halo
// exchange, thread-pool parallel injection, pre-registered RDMA buffers)
// can be implemented, validated, and benchmarked without the machine.
//
// cmd/benchsuite regenerates every table and figure of the paper's
// evaluation on the virtual clock, and benchmark/run.sh measures what the
// simulator itself costs on the host clock; see DESIGN.md for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results.
package tofumd
