#pragma once

// Host-speed probe. On a shared virtual machine the same simulation can
// take 1.5x longer in one minute than in the next, because other tenants
// contend for the caches and memory the simulator leans on. The probe
// runs a fixed amount of work with the simulator's memory behaviour —
// pointer chasing over an 8 MiB arena and a binary heap of timed events
// whose payloads live in a second arena — and returns how long it took.
// pb_engine runs it before set-up and after teardown; run.py divides the
// repetition's times by it.
//
// The probe depends on nothing under src/ and takes its memory straight
// from mmap, so neither a change to the simulator nor the state the
// simulator leaves in the heap changes the work it does.

namespace perfbench {

/// Seconds one probe took on this thread.
double host_probe_s();

}  // namespace perfbench
