"""Set-up probe: in a fresh process, import vhosim and build and validate one
workload's configs, then print the CPU seconds that took, unscaled and
scaled by the reference loop sampled during it (see reference.py). run.py starts this several times and reports the median scaled
time as setup_s: how long a user waits, after the interpreter is up, before a
first run can begin.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import reference

if __name__ == "__main__":
    with reference.Sampler() as timed:
        import workloads
        workloads.import_vhosim()
        workloads.build_configs(sys.argv[1], int(sys.argv[2]))
    print(timed.cpu_s, timed.scaled_s, flush=True)
