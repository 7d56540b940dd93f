package main

import (
	"reflect"
	"strings"
	"testing"

	"inlinered"
)

// TestBlockFlagsPlan pins the flags → device options / op source step of
// the block modes: every device flag reaches its option (under -boot-storm
// too), -trace-out is an error wherever a recorder cannot serve, a mix flag
// that is not given keeps the mode's preset, -ops-in refuses the
// generator's flags, and a flag the mode would ignore is an error.
func TestBlockFlagsPlan(t *testing.T) {
	base := blockFlags{shards: 1, replicas: 1, serveOps: 3000, blocks: 1024, seed: 1,
		writes: 0.6, trims: 0.05, dedup: 2, hotspot: 0.5, stormPasses: 1, subBlocks: 4}
	shardMix := inlinered.OpsSpec{Ops: 3000, Blocks: 1024, WriteFrac: 0.6, TrimFrac: 0.05, DedupRatio: 2, Hotspot: 0.5, Seed: 1}
	cases := []struct {
		name    string
		mut     func(*blockFlags)
		given   string // space-separated names of the flags set explicitly
		wantErr string
		check   func(*testing.T, inlinered.BlockDeviceOptions, inlinered.OpsSpec)
	}{
		{name: "shards preset", check: func(t *testing.T, o inlinered.BlockDeviceOptions, s inlinered.OpsSpec) {
			if s != shardMix {
				t.Errorf("spec %+v, want %+v", s, shardMix)
			}
			want := inlinered.BlockDeviceOptions{Blocks: 1024, Shards: 1, Replicas: 1}
			if !reflect.DeepEqual(o, want) {
				t.Errorf("opts %+v, want %+v", o, want)
			}
		}},
		{name: "par reaches Parallelism", mut: func(f *blockFlags) { f.par = 4 },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				if o.Parallelism != 4 {
					t.Errorf("Parallelism %d, want 4", o.Parallelism)
				}
			}},
		{name: "no-compress reaches DisableCompression", mut: func(f *blockFlags) { f.noCompress = true },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				if !o.DisableCompression {
					t.Error("DisableCompression not set")
				}
			}},
		{name: "faults reach both streams", mut: func(f *blockFlags) { f.nodes = 3; f.faults = "7:0.3"; f.nodeFaults = "9:0.01" },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				if o.FaultSeed != 7 || o.FaultRate != 0.3 || o.NodeFaultSeed != 9 || o.NodeFaultRate != 0.01 || o.Nodes != 3 {
					t.Errorf("fault options %+v", o)
				}
			}},
		{name: "an exhausted per-op fault is counted, not fatal", mut: func(f *blockFlags) { f.faults = "7:0.3" },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, s inlinered.OpsSpec) {
				arr, err := inlinered.NewArray(o)
				if err != nil {
					t.Fatal(err)
				}
				defer arr.Close()
				list, err := inlinered.NewOps(s)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := arr.Serve(list, inlinered.ServeOptions{ContentSeed: s.Seed, CleanEvery: 4096})
				if err != nil || rep.Ops != 4024 || rep.Errors != 1 || rep.Merged.Writes == 0 {
					t.Fatalf("replay: err %v, report %v", err, rep)
				}
			}},
		{name: "bad faults", mut: func(f *blockFlags) { f.faults = "7" }, wantErr: "SEED:RATE"},
		{name: "faults rate above one", mut: func(f *blockFlags) { f.faults = "7:2" }, wantErr: "-faults rate"},
		{name: "node-faults rate below zero", mut: func(f *blockFlags) { f.nodes = 3; f.nodeFaults = "7:-1" }, wantErr: "-node-faults rate"},
		{name: "trace-out at one shard", mut: func(f *blockFlags) { f.traceOut = "t.json" },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				if o.Recorder == nil {
					t.Error("no recorder attached")
				}
			}},
		{name: "trace-out above one shard", mut: func(f *blockFlags) { f.traceOut = "t.json"; f.shards = 4 }, wantErr: "-trace-out requires"},
		{name: "trace-out on a cluster", mut: func(f *blockFlags) { f.traceOut = "t.json"; f.nodes = 3 }, wantErr: "-trace-out requires"},
		{name: "nodes preset is read-mostly", mut: func(f *blockFlags) { f.nodes = 3 },
			check: func(t *testing.T, _ inlinered.BlockDeviceOptions, s inlinered.OpsSpec) {
				if want := inlinered.ReadMostlyOps(3000, 1024, 1); s != want {
					t.Errorf("spec %+v, want %+v", s, want)
				}
			}},
		{name: "given mix flags override the nodes preset", given: "writes hotspot dedup",
			mut: func(f *blockFlags) { f.nodes = 3; f.writes = 0.6; f.hotspot = 0.8; f.dedup = 3 },
			check: func(t *testing.T, _ inlinered.BlockDeviceOptions, s inlinered.OpsSpec) {
				if s.WriteFrac != 0.6 || s.TrimFrac != 0.01 || s.Hotspot != 0.8 || s.DedupRatio != 3 {
					t.Errorf("spec %+v", s)
				}
			}},
		{name: "given mix flags override the shards preset", given: "writes trims",
			mut: func(f *blockFlags) { f.writes = 0.2; f.trims = 0.3 },
			check: func(t *testing.T, _ inlinered.BlockDeviceOptions, s inlinered.OpsSpec) {
				if s.WriteFrac != 0.2 || s.TrimFrac != 0.3 {
					t.Errorf("spec %+v", s)
				}
			}},
		{name: "ops-in alone", mut: func(f *blockFlags) { f.opsIn = "ops.txt" }, given: "ops-in blocks seed"},
		{name: "ops-in with serve-ops", mut: func(f *blockFlags) { f.opsIn = "ops.txt" }, given: "serve-ops", wantErr: "-serve-ops"},
		{name: "ops-in with writes", mut: func(f *blockFlags) { f.opsIn = "ops.txt" }, given: "writes", wantErr: "-writes"},
		{name: "ops-in with trims", mut: func(f *blockFlags) { f.opsIn = "ops.txt" }, given: "trims", wantErr: "-trims"},
		{name: "ops-in with hotspot", mut: func(f *blockFlags) { f.opsIn = "ops.txt" }, given: "hotspot", wantErr: "-hotspot"},
		{name: "ops-in with dedup", mut: func(f *blockFlags) { f.opsIn = "ops.txt" }, given: "dedup", wantErr: "-dedup"},
		{name: "boot-storm device flags reach the device", given: "faults no-compress sub-blocks",
			mut: func(f *blockFlags) {
				f.bootStorm = true
				f.shards = 2
				f.faults = "7:0.3"
				f.noCompress = true
				f.subBlocks = 8
			},
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				want := inlinered.BlockDeviceOptions{Blocks: 1024, Shards: 2, Replicas: 1,
					DisableCompression: true, SubBlocks: 8, FaultSeed: 7, FaultRate: 0.3}
				if !reflect.DeepEqual(o, want) {
					t.Errorf("opts %+v, want %+v", o, want)
				}
			}},
		{name: "boot-storm node faults reach the cluster", mut: func(f *blockFlags) { f.bootStorm = true; f.nodes = 3; f.nodeFaults = "9:0.01" },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				if o.Nodes != 3 || o.NodeFaultSeed != 9 || o.NodeFaultRate != 0.01 || o.SubBlocks != 4 {
					t.Errorf("opts %+v", o)
				}
			}},
		{name: "boot-storm trace-out at one shard", mut: func(f *blockFlags) { f.bootStorm = true; f.traceOut = "t.json" },
			check: func(t *testing.T, o inlinered.BlockDeviceOptions, _ inlinered.OpsSpec) {
				if o.Recorder == nil {
					t.Error("no recorder attached")
				}
			}},
		{name: "boot-storm trace-out above one shard", mut: func(f *blockFlags) { f.bootStorm = true; f.traceOut = "t.json"; f.shards = 4 },
			wantErr: "-trace-out requires"},
		{name: "boot-storm with ops-out", mut: func(f *blockFlags) { f.bootStorm = true }, given: "ops-out", wantErr: "-ops-out"},
		{name: "storm-clients without boot-storm", given: "storm-clients", wantErr: "-storm-clients needs -boot-storm"},
		{name: "storm-passes without boot-storm", given: "storm-passes", wantErr: "-storm-passes needs -boot-storm"},
		{name: "sub-blocks without boot-storm", given: "sub-blocks", wantErr: "-sub-blocks needs -boot-storm"},
		{name: "sub-blocks in the stream pipeline", mut: func(f *blockFlags) { f.shards = 0 }, given: "sub-blocks",
			wantErr: "-sub-blocks needs -boot-storm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			f.given = map[string]bool{}
			for _, name := range strings.Fields(tc.given) {
				f.given[name] = true
			}
			if tc.mut != nil {
				tc.mut(&f)
			}
			opts, spec, err := f.plan()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, opts, spec)
			}
		})
	}
}
