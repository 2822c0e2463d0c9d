package hw

import "fmt"

// Link describes a point-to-point communication fabric with an alpha-beta
// cost model: transferring v bytes costs Alpha + v/Beta seconds. Alpha
// captures software + wire latency per message; Beta is the saturated
// bandwidth. EffCurveBytes is the message size at which the link reaches
// half of its saturated bandwidth — small messages see much lower
// effective bandwidth, which is why the profiler's volume interpolation
// (§3.4) needs multiple sample points rather than a single slope.
type Link struct {
	Name          string
	Alpha         float64 // per-message latency, seconds
	Beta          float64 // saturated bandwidth, bytes/s
	EffCurveBytes float64 // half-bandwidth message size, bytes
}

// Intra-node fabrics.
var (
	// NVLink4 (Hopper): 900 GB/s aggregate per GPU.
	NVLink4 = Link{Name: "NVLink4", Alpha: 3e-6, Beta: 900e9, EffCurveBytes: 512 * 1024}
	// NVLink3 (Ampere SXM): 600 GB/s.
	NVLink3 = Link{Name: "NVLink3", Alpha: 3.5e-6, Beta: 600e9, EffCurveBytes: 512 * 1024}
	// NVLink2 (Volta): 300 GB/s.
	NVLink2 = Link{Name: "NVLink2", Alpha: 4e-6, Beta: 300e9, EffCurveBytes: 512 * 1024}
	// PCIe 4.0 x16: 64 GB/s node-internal aggregate (paper, Cluster-B L20
	// description); a single peer-to-peer path sustains ~half of that.
	PCIe4 = Link{Name: "PCIe4", Alpha: 6e-6, Beta: 32e9, EffCurveBytes: 256 * 1024}
)

// Inter-node NICs (Table 1).
var (
	// ConnectX-5: 100 Gb/s InfiniBand EDR.
	ConnectX5 = Link{Name: "ConnectX5", Alpha: 12e-6, Beta: 12.5e9, EffCurveBytes: 1024 * 1024}
	// ConnectX-6: 200 Gb/s InfiniBand HDR.
	ConnectX6 = Link{Name: "ConnectX6", Alpha: 10e-6, Beta: 25e9, EffCurveBytes: 1024 * 1024}
)

// EffBandwidth returns the effective bandwidth (bytes/s) the link sustains
// for a message of v bytes: Beta * v / (v + EffCurveBytes). The curve is the
// standard latency-bandwidth ramp observed in NCCL bus-bandwidth sweeps.
func (l Link) EffBandwidth(v float64) float64 {
	if v <= 0 {
		return l.Beta
	}
	return l.Beta * v / (v + l.EffCurveBytes)
}

// TransferTime returns the time to move v bytes across the link including
// per-message latency and the bandwidth ramp.
func (l Link) TransferTime(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return l.Alpha + v/l.EffBandwidth(v)
}

// Primitive identifies a communication collective. The disaggregated
// profiler (§3.4) samples each primitive offline per topology and
// interpolates online by transfer volume.
type Primitive string

// Collectives used by the parallelism strategies in the paper: all-reduce
// for data-parallel gradient sync and tensor-parallel activations,
// all-gather/reduce-scatter for ZeRO-style sharding, all-to-all for MoE
// expert dispatch, and point-to-point sends between pipeline stages.
const (
	AllReduce     Primitive = "all-reduce"
	AllGather     Primitive = "all-gather"
	ReduceScatter Primitive = "reduce-scatter"
	AllToAll      Primitive = "all-to-all"
	P2P           Primitive = "p2p"
)

// Primitives lists all supported collectives in canonical order.
func Primitives() []Primitive {
	return []Primitive{AllReduce, AllGather, ReduceScatter, AllToAll, P2P}
}

// Topology describes the span of a communicator group: how many
// participants and whether the group crosses node boundaries. The
// bottleneck link for a ring collective is the slowest hop in the ring —
// the inter-node NIC as soon as the group spans nodes. NICShare accounts
// for ranks co-located on one node sharing that node's single NIC: a ring
// over 8 GPUs on 2-GPU nodes drives each NIC with two ranks' traffic,
// halving the effective per-rank bandwidth.
type Topology struct {
	GPUType   string // catalog name: the comm table's key and String's prefix
	Workers   int    // communicator size (k)
	CrossNode bool   // true when the ring includes an inter-node hop
	NICShare  int    // ranks of this group per node (≥1); 0 means 1
}

// String implements fmt.Stringer for diagnostics and table keys.
func (t Topology) String() string {
	span := "intra"
	if t.CrossNode {
		span = fmt.Sprintf("inter/share%d", t.nicShare())
	}
	return fmt.Sprintf("%s/%d/%s", t.GPUType, t.Workers, span)
}

func (t Topology) nicShare() int {
	if t.NICShare < 1 {
		return 1
	}
	return t.NICShare
}

// bottleneck returns the ring's slowest link for the topology on GPUs of
// spec g, with the inter-node NIC bandwidth divided among co-located
// ranks.
func (g *GPU) bottleneck(t Topology) Link {
	if t.CrossNode {
		l := g.InterLink
		l.Beta /= float64(t.nicShare())
		return l
	}
	return g.IntraLink
}

// CollectiveTime returns the analytic cost of running primitive p over v
// bytes with the given topology on GPUs of spec g, whose links price the
// ring (t.GPUType is not consulted). Ring algorithms are assumed (the
// NCCL default at these scales):
//
//	all-reduce:      2(k-1)/k * v / B  + 2(k-1) * alpha
//	all-gather:       (k-1)/k * v / B  +  (k-1) * alpha
//	reduce-scatter:   (k-1)/k * v / B  +  (k-1) * alpha
//	all-to-all:       (k-1)/k * v / B  +  (k-1) * alpha   (pairwise exchange)
//	p2p:                       v / B  +          alpha
//
// where B is the volume-dependent effective bandwidth of the bottleneck
// link. v is the per-participant payload (e.g. the gradient bytes each
// replica contributes for all-reduce).
func (g *GPU) CollectiveTime(p Primitive, t Topology, v float64) (float64, error) {
	if v < 0 {
		return 0, fmt.Errorf("hw: negative volume %g", v)
	}
	link := g.bottleneck(t)
	k := float64(t.Workers)
	if t.Workers <= 1 && p != P2P {
		return 0, nil // single participant: no communication
	}
	// Effective bandwidth is set by the per-step chunk size (v/k for rings).
	chunk := v
	if t.Workers > 1 {
		chunk = v / k
	}
	bw := link.EffBandwidth(chunk)
	switch p {
	case AllReduce:
		return 2*(k-1)/k*v/bw + 2*(k-1)*link.Alpha, nil
	case AllGather, ReduceScatter, AllToAll:
		return (k-1)/k*v/bw + (k-1)*link.Alpha, nil
	case P2P:
		return link.TransferTime(v), nil
	default:
		return 0, fmt.Errorf("hw: unknown primitive %q", p)
	}
}

// P2PTime returns the cost of a point-to-point activation transfer between
// pipeline stages of the given GPU type. crossNode selects the NIC path.
func P2PTime(g GPU, v float64, crossNode bool) float64 {
	l := g.IntraLink
	if crossNode {
		l = g.InterLink
	}
	return l.TransferTime(v)
}
