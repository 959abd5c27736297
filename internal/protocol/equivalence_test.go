package protocol_test

import (
	"fmt"
	"testing"

	"meg/internal/core"
	"meg/internal/protocol"
	"meg/internal/rng"
	"meg/internal/spec"
)

// gossipCases pairs every reference protocol with its kernel engine
// counterpart.
var gossipCases = []struct {
	name  string
	ref   protocol.Protocol
	proto core.GossipProtocol
	opt   core.GossipOptions
}{
	{"push", protocol.PushGossip{}, core.GossipPush, core.GossipOptions{}},
	{"push-pull", protocol.PushPull{}, core.GossipPushPull, core.GossipOptions{}},
	{"probabilistic", protocol.Probabilistic{Beta: 0.7}, core.GossipProbFlood, core.GossipOptions{Beta: 0.7}},
	{"lossy", protocol.LossyFlooding{Loss: 0.3}, core.GossipLossyFlood, core.GossipOptions{Loss: 0.3}},
}

// modelFactories builds one small dynamics factory per evolving-graph
// model via the spec factory — the complete set of substrates.
func modelFactories(t *testing.T) map[string]func() core.Dynamics {
	t.Helper()
	out := make(map[string]func() core.Dynamics)
	for _, name := range []string{"geometric", "torus", "edge", "waypoint", "billiard", "walkers", "iiddisk"} {
		s := spec.Spec{Model: spec.Model{Name: name, N: 400, RFrac: 0.5}}
		factory, _, err := s.NewFactory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = factory
	}
	return out
}

func resultsEqual(t *testing.T, label string, ref protocol.Result, got core.GossipResult) {
	t.Helper()
	if ref.Messages != got.Messages {
		t.Fatalf("%s: reference sent %d messages, kernel %d", label, ref.Messages, got.Messages)
	}
	runsEqual(t, label, ref, got.Rounds, got.Completed, got.Trajectory)
}

// runsEqual compares the rounds, completion and trajectory an engine
// run reports against the reference run.
func runsEqual(t *testing.T, label string, ref protocol.Result, rounds int, completed bool, traj []int) {
	t.Helper()
	if ref.Rounds != rounds || ref.Completed != completed {
		t.Fatalf("%s: header diverged: reference {rounds %d completed %v} vs engine {rounds %d completed %v}",
			label, ref.Rounds, ref.Completed, rounds, completed)
	}
	if len(ref.Trajectory) != len(traj) {
		t.Fatalf("%s: trajectory lengths %d vs %d", label, len(ref.Trajectory), len(traj))
	}
	for i := range ref.Trajectory {
		if ref.Trajectory[i] != traj[i] {
			t.Fatalf("%s: trajectory[%d] = %d vs %d", label, i, ref.Trajectory[i], traj[i])
		}
	}
}

// snapshotModes is every per-round snapshot path the engines offer.
var snapshotModes = []core.SnapshotMode{core.SnapshotFull, core.SnapshotDelta}

// TestGossipKernelMatchesReference is the oracle gate of the gossip
// engine: on every one of the seven models and every protocol, the
// bitset kernel must reproduce the per-node reference implementation
// byte for byte — same rounds, completion, trajectory, and message
// count — at every parallelism level and on both snapshot paths,
// because both draw every decision from the same (node, round)-keyed
// streams and the delta path reproduces the full rebuild's snapshots.
func TestGossipKernelMatchesReference(t *testing.T) {
	cap := core.DefaultRoundCap(400)
	for model, factory := range modelFactories(t) {
		for _, tc := range gossipCases {
			seed := rng.New(41)
			dRef := factory()
			dRef.Reset(seed.Split())
			ref := tc.ref.Run(dRef, 3, cap, seed.Split())
			for _, snap := range snapshotModes {
				for _, par := range []int{1, 8} {
					seed = rng.New(41)
					dKer := factory()
					dKer.Reset(seed.Split())
					opt := tc.opt
					opt.Parallelism = par
					opt.Snapshot = snap
					got := core.Gossip(dKer, tc.proto, 3, cap, seed.Split(), opt)
					resultsEqual(t, fmt.Sprintf("%s/%s/%s/p%d", model, tc.name, snap, par), ref, got)
				}
			}
		}
	}
}

// TestFloodEngineMatchesReference is the oracle gate of the flooding
// engine: on every one of the seven models, core.FloodOpt must
// reproduce the per-node reference protocol.Flooding — same rounds,
// completion and trajectory — for every kernel, parallelism level and
// snapshot path. The list leg pins the active-set crossover to 1, so
// every pull round walks the uninformed list (and, on the delta path,
// the skip layer's row-stamp filter) instead of the complement scan.
func TestFloodEngineMatchesReference(t *testing.T) {
	const source = 3
	cap := core.DefaultRoundCap(400)
	for model, factory := range modelFactories(t) {
		seed := rng.New(43)
		dRef := factory()
		dRef.Reset(seed.Split())
		ref := protocol.Flooding{}.Run(dRef, source, cap, seed.Split())
		for _, list := range []bool{false, true} {
			func() {
				if list {
					defer core.SetActiveSetFracForTest(1)()
				}
				for _, snap := range snapshotModes {
					for _, par := range []int{1, 8} {
						for _, kernel := range []core.Kernel{core.KernelAuto, core.KernelPush, core.KernelPull} {
							seed := rng.New(43)
							d := factory()
							d.Reset(seed.Split())
							got := core.FloodOpt(d, source, cap, core.FloodOptions{Kernel: kernel, Parallelism: par, Snapshot: snap})
							label := fmt.Sprintf("%s/%s/%s/p%d/list=%v", model, kernel, snap, par, list)
							runsEqual(t, label, ref, got.Rounds, got.Completed, got.Trajectory)
						}
					}
				}
			}()
		}
	}
}

// TestGossipArrivalConsistent pins the kernel's extra outputs: the
// arrival array and informed set must agree with the trajectory.
func TestGossipArrivalConsistent(t *testing.T) {
	factory := modelFactories(t)["edge"]
	for _, tc := range gossipCases {
		d := factory()
		r := rng.New(17)
		d.Reset(r.Split())
		res := core.Gossip(d, tc.proto, 0, core.DefaultRoundCap(400), r.Split(), tc.opt)
		informed := 0
		maxArrival := 0
		for v, a := range res.Arrival {
			if (a >= 0) != res.Informed.Contains(v) {
				t.Fatalf("%s: arrival/informed mismatch at %d", tc.name, v)
			}
			if a >= 0 {
				informed++
				if int(a) > maxArrival {
					maxArrival = int(a)
				}
			}
		}
		final := res.Trajectory[len(res.Trajectory)-1]
		if informed != final {
			t.Fatalf("%s: %d arrivals vs trajectory end %d", tc.name, informed, final)
		}
		if res.Completed && maxArrival != res.Rounds {
			t.Fatalf("%s: max arrival %d vs rounds %d", tc.name, maxArrival, res.Rounds)
		}
	}
}
