// Package host composes the full host network of Figure 1 — NIC, PCIe,
// IIO, optional DDIO cache, memory controller, RX cores — together with
// the MSR register file, the MBA control plane, and the transport layer.
//
// The receive path mirrors the Linux datapath the paper instruments:
//
//	wire → NIC buffer → DMA (PCIe credits) → IIO → LLC/DRAM
//	     → RX core processing → receive hooks (NetFilter equivalent,
//	       where hostCC marks CE) → transport → application
package host

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/iio"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/msr"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config assembles the component configurations of one host.
type Config struct {
	ID        packet.HostID
	DDIO      bool
	Mem       mem.Config
	Cache     cache.Config
	NIC       nic.Config
	PCIe      pcie.Config
	IIO       iio.Config
	Rx        cpu.RxConfig
	MBA       cpu.MBAConfig
	Transport transport.Config
	// IOMMU optionally puts DMA address translation on the receive path
	// (disabled by default, as in the paper's evaluation; see §6).
	IOMMU iommu.Config
	// Pool is the shared packet pool for this host's datapath (nil keeps
	// plain allocation). The testbed hands every host the SAME pool:
	// sender transports acquire the packets that the receiver's rx path
	// eventually releases, so per-host pools would drain asymmetrically.
	Pool *packet.Pool
}

// DefaultConfig returns the paper-calibrated host for a given MTU.
func DefaultConfig(id packet.HostID, mtu int, ddio bool) Config {
	return Config{
		ID:        id,
		DDIO:      ddio,
		Mem:       mem.DefaultConfig(),
		Cache:     cache.DefaultConfig(),
		NIC:       nic.DefaultConfig(),
		PCIe:      pcie.DefaultConfig(),
		IIO:       iio.DefaultConfig(),
		Rx:        cpu.DefaultRxConfig(),
		MBA:       cpu.DefaultMBAConfig(),
		Transport: transport.DefaultConfig(mtu),
	}
}

// ReceiveHook observes (and may mutate) packets after CPU processing and
// before transport delivery — the NetFilter ip_recv hook position hostCC
// uses for ECN marking (§4.3). It must not keep the packet after it
// returns: the rx path releases it to the pool.
type ReceiveHook func(*packet.Packet)

// Host is one fully composed server.
type Host struct {
	E   *sim.Engine
	Cfg Config

	MC    *mem.Controller
	DDIO  *cache.DDIO  // nil when disabled
	IOMMU *iommu.IOMMU // nil when disabled
	MSR   *msr.File
	MBA   *cpu.MBA
	NIC   *nic.NIC
	IIO   *iio.IIO
	Link  *pcie.Link
	Rx    *cpu.RxPool
	EP    *transport.Endpoint

	mapp  *cpu.MApp
	hooks []ReceiveHook
}

// New builds a host on engine e.
func New(e *sim.Engine, cfg Config) *Host {
	h := &Host{E: e, Cfg: cfg}
	h.MC = mem.NewController(e, cfg.Mem)
	h.MSR = msr.NewFile(e)
	h.MBA = cpu.NewMBA(e, cfg.MBA)
	if cfg.DDIO {
		h.DDIO = cache.New(cfg.Cache, e.Rand())
		// LLC pollution tracks host-local traffic intensity: MApp lines
		// streaming through the shared cache displace DDIO-resident
		// packet lines, so eviction probability rises with MApp
		// bandwidth (§2.2) and falls again when hostCC throttles it.
		base := cfg.Cache.PollutionProb
		h.DDIO.SetPollutionFn(func() float64 {
			frac := float64(h.MC.RecentRate(mem.ClassMApp)) / float64(sim.GBps(22))
			return base + 0.9*frac*frac
		})
	}
	h.IIO = iio.New(e, cfg.IIO, h.MC, h.DDIO, h.MSR, h.onDelivery)
	if cfg.IOMMU.Enabled {
		h.IOMMU = iommu.New(e, h.MC, cfg.IOMMU)
		h.IIO.SetIOMMU(h.IOMMU)
	}
	h.Link = pcie.NewLink(e, cfg.PCIe, h.IIO.OnTLP)
	h.IIO.SetLink(h.Link)
	h.NIC = nic.New(e, cfg.NIC, h.Link, h.MC)
	h.Rx = cpu.NewRxPool(e, h.MC, h.DDIO, cfg.Rx, h.deliverUp)
	h.Rx.SetOnDone(func(*packet.Packet) { h.NIC.ReleaseDescriptor() })
	if cfg.Pool != nil {
		h.NIC.SetPool(cfg.Pool)
		h.Rx.SetPool(cfg.Pool)
		h.Cfg.Transport.Pool = cfg.Pool
		cfg.Transport.Pool = cfg.Pool
	}
	h.EP = transport.NewEndpoint(e, cfg.ID, h, cfg.Transport)
	return h
}

// ID returns the host identifier.
func (h *Host) ID() packet.HostID { return h.Cfg.ID }

// onDelivery receives DMA-complete packets from the IIO and queues them
// for CPU processing.
func (h *Host) onDelivery(p *packet.Packet, entry cache.EntryID, hasEntry bool) {
	h.Rx.Enqueue(cpu.RxWork{Pkt: p, Entry: entry, HasEntry: hasEntry})
}

// deliverUp runs the receive hook chain, then the transport demux.
func (h *Host) deliverUp(p *packet.Packet) {
	for _, hook := range h.hooks {
		hook(p)
	}
	h.EP.Receive(p)
}

// AddReceiveHook appends a hook at the NetFilter position.
func (h *Host) AddReceiveHook(hook ReceiveHook) {
	if hook == nil {
		panic("host: nil receive hook")
	}
	h.hooks = append(h.hooks, hook)
}

// Transmit implements transport.Network: packets leave via the NIC.
func (h *Host) Transmit(p *packet.Packet) { h.NIC.Transmit(p) }

// ReceiveFromWire is the fabric's delivery target.
func (h *Host) ReceiveFromWire(p *packet.Packet) { h.NIC.Receive(p) }

// SetOutput attaches the NIC transmit side to a fabric link.
func (h *Host) SetOutput(out func(*packet.Packet)) { h.NIC.SetOutput(out) }

// StartMApp launches host-local memory traffic at the given degree of
// host congestion (8 cores per 1x, §2.2) under MBA control.
func (h *Host) StartMApp(degree float64) *cpu.MApp {
	if h.mapp != nil {
		panic("host: MApp already started")
	}
	h.mapp = cpu.NewMApp(h.E, h.MC, h.MBA, cpu.DefaultMAppConfig(degree))
	if h.mapp.Cores() > 0 {
		h.mapp.Start()
	}
	return h.mapp
}

// MApp returns the host-local traffic generator, if started.
func (h *Host) MApp() *cpu.MApp { return h.mapp }

// MarkWindow begins a measurement window on all host-level meters.
func (h *Host) MarkWindow() {
	h.NIC.MarkWindow()
	h.MC.MarkAll()
}

// RegisterSnapshots registers every snapshottable component of this host
// with reg, named prefix+"/<component>" in datapath order (wire to app).
// The IOMMU model keeps no mutable scalar state worth imaging and is
// excluded.
func (h *Host) RegisterSnapshots(reg *snapshot.Registry, prefix string) {
	reg.Register(prefix+"/nic", h.NIC)
	reg.Register(prefix+"/pcie", h.Link)
	reg.Register(prefix+"/iio", h.IIO)
	if h.DDIO != nil {
		reg.Register(prefix+"/ddio", h.DDIO)
	}
	reg.Register(prefix+"/mem", h.MC)
	reg.Register(prefix+"/msr", h.MSR)
	reg.Register(prefix+"/mba", h.MBA)
	reg.Register(prefix+"/rx", h.Rx)
	if h.mapp != nil {
		reg.Register(prefix+"/mapp", h.mapp)
	}
	reg.Register(prefix+"/transport", h.EP)
}

// RegisterInstruments registers every component's telemetry instruments
// with reg, named under prefix in datapath order (wire to app).
func (h *Host) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	h.NIC.RegisterInstruments(reg, prefix)
	h.Link.RegisterInstruments(reg, prefix)
	h.IIO.RegisterInstruments(reg, prefix)
	if h.DDIO != nil {
		h.DDIO.RegisterInstruments(reg, prefix)
	}
	if h.IOMMU != nil {
		h.IOMMU.RegisterInstruments(reg, prefix)
	}
	h.MC.RegisterInstruments(reg, prefix)
	h.MBA.RegisterInstruments(reg, prefix)
	h.Rx.RegisterInstruments(reg, prefix)
	h.EP.RegisterInstruments(reg, prefix)
}

// AttachTracer attaches the packet-lifecycle tracer and counter tracks to
// every component of this host, with tracks named under prefix.
func (h *Host) AttachTracer(t *telemetry.Tracer, prefix string) {
	h.NIC.SetTracer(t)
	h.Link.SetTracer(t, prefix)
	h.IIO.SetTracer(t, prefix)
	h.Rx.SetTracer(t)
	h.MBA.SetTracer(t, prefix)
}

// Validate reports the first invalid parameter across the host's
// component configurations.
func (c Config) Validate() error {
	for _, v := range []interface{ Validate() error }{
		c.Mem, c.Cache, c.NIC, c.PCIe, c.IIO, c.Rx, c.MBA, c.Transport, c.IOMMU,
	} {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	return nil
}
