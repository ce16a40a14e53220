// Package iommu models the IO memory management unit on the DMA path.
//
// The paper identifies memory protection hardware as a distinct host
// congestion point (§2.1: "hardware components required for memory
// protection from peripheral devices") and calls out IOMMU-induced host
// congestion as future work precisely because hostCC's IIO occupancy
// signal does not capture it (§6): when the IOTLB thrashes, DMA stalls in
// translation *before* entering the IIO buffer — PCIe goes underutilized
// and packets drop at the NIC while IIO occupancy stays low. This package
// lets the repository reproduce that blind spot and evaluate candidate
// signals for it (the IOTLB miss rate).
//
// Model: an IOTLB of N entries with LRU replacement, 4 KB pages, and a
// multi-level page-table walk on miss. Each walk level is a dependent
// 64 B read through the memory controller, so walks both delay the
// transaction and consume memory bandwidth — and get slower when the
// memory controller is loaded.
package iommu

import (
	"fmt"

	"container/list"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config parameterizes the IOMMU.
type Config struct {
	// Enabled activates translation on the DMA path.
	Enabled bool
	// IOTLBEntries is the translation cache size (tens to a few hundred
	// on real parts; rIOMMU-style designs enlarge it).
	IOTLBEntries int
	// PageBytes is the translation granularity.
	PageBytes int
	// WalkLevels is the page-table depth (4 on x86-64).
	WalkLevels int
	// HitLatency is the IOTLB hit cost.
	HitLatency sim.Time
	// WorkingSetPages is the number of distinct IO buffer pages the NIC
	// descriptor ring cycles through; a working set far above
	// IOTLBEntries thrashes the cache.
	WorkingSetPages int
}

// DefaultConfig returns a thrash-prone configuration modeled on
// commodity parts (64-entry IOTLB vs a 512-page receive ring).
func DefaultConfig() Config {
	return Config{
		Enabled:         true,
		IOTLBEntries:    64,
		PageBytes:       4096,
		WalkLevels:      4,
		HitLatency:      20 * sim.Nanosecond,
		WorkingSetPages: 512,
	}
}

// IOMMU is one host's IO translation unit.
type IOMMU struct {
	e   *sim.Engine
	mc  *mem.Controller
	cfg Config

	lru     *list.List // front = most recent; values are page numbers
	entries map[uint64]*list.Element

	nextPage uint64 // allocator for descriptor buffer pages

	// Hits and Misses count translations.
	Hits   stats.Counter
	Misses stats.Counter
	// WalkTime accumulates total time spent walking page tables.
	WalkTime sim.Time

	// hitH retires an IOTLB hit and walkH one page-table read; both
	// carry the slot of their translation in xlats.
	hitH, walkH sim.HandlerID
	xlats       sim.Slots[xlat]
}

// xlat is one in-flight translation.
type xlat struct {
	page  uint64
	start sim.Time
	left  int // page-table reads not yet retired
	done  func()
}

// New creates an IOMMU backed by the given memory controller.
func New(e *sim.Engine, mc *mem.Controller, cfg Config) *IOMMU {
	if cfg.IOTLBEntries <= 0 || cfg.PageBytes <= 0 || cfg.WalkLevels <= 0 {
		panic("iommu: invalid config")
	}
	if cfg.WorkingSetPages <= 0 {
		cfg.WorkingSetPages = 512
	}
	u := &IOMMU{
		e:       e,
		mc:      mc,
		cfg:     cfg,
		lru:     list.New(),
		entries: make(map[uint64]*list.Element),
	}
	u.hitH = e.Handler(func(slot, _ uint64) { u.xlats.Take(slot).done() })
	u.walkH = e.Handler(u.walkRead)
	return u
}

// Config returns the configuration.
func (u *IOMMU) Config() Config { return u.cfg }

// NextBufferPage returns the IO virtual page for the next receive buffer,
// cycling through the descriptor ring's working set.
func (u *IOMMU) NextBufferPage() uint64 {
	p := u.nextPage
	u.nextPage = (u.nextPage + 1) % uint64(u.cfg.WorkingSetPages)
	return p
}

// Translate resolves one IO virtual page and invokes done when the
// translation is available. Hits cost HitLatency; misses perform a
// dependent chain of page-table reads through the memory controller and
// then install the entry (evicting the LRU victim if full).
func (u *IOMMU) Translate(page uint64, done func()) {
	if done == nil {
		panic("iommu: nil done")
	}
	if el, ok := u.entries[page]; ok {
		u.Hits.Inc()
		u.lru.MoveToFront(el)
		u.e.ScheduleAfter(u.cfg.HitLatency, u.hitH, u.xlats.Put(xlat{done: done}), 0)
		return
	}
	u.Misses.Inc()
	u.walk(u.xlats.Put(xlat{page: page, start: u.e.Now(), left: u.cfg.WalkLevels, done: done}))
}

// walk issues the next dependent page-table read of the translation
// parked at slot.
func (u *IOMMU) walk(slot uint64) {
	u.mc.Submit(mem.Request{
		Size:       mem.CacheLine,
		Class:      mem.ClassOther,
		CompleteCB: sim.Callback{ID: u.walkH, Arg0: slot},
	})
}

// walkRead retires one page-table read; the last one installs the entry
// and completes the translation.
func (u *IOMMU) walkRead(slot, _ uint64) {
	x := u.xlats.Take(slot)
	if x.left--; x.left > 0 {
		u.walk(u.xlats.Put(x))
		return
	}
	u.WalkTime += u.e.Now() - x.start
	u.install(x.page)
	x.done()
}

func (u *IOMMU) install(page uint64) {
	if _, dup := u.entries[page]; dup {
		return // raced with a concurrent walk for the same page
	}
	for u.lru.Len() >= u.cfg.IOTLBEntries {
		victim := u.lru.Back()
		u.lru.Remove(victim)
		delete(u.entries, victim.Value.(uint64))
	}
	u.entries[page] = u.lru.PushFront(page)
}

// MissRate returns lifetime misses/translations — the candidate
// congestion signal for IOMMU-induced host congestion (§6).
func (u *IOMMU) MissRate() float64 {
	total := u.Hits.Total() + u.Misses.Total()
	if total == 0 {
		return 0
	}
	return float64(u.Misses.Total()) / float64(total)
}

// Resident returns the number of cached translations.
func (u *IOMMU) Resident() int { return u.lru.Len() }

// RegisterInstruments registers the IOMMU's metrics under prefix.
func (u *IOMMU) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/iommu/hits", "xlats", "IOTLB hits",
		func() float64 { return float64(u.Hits.Total()) })
	reg.Counter(prefix+"/iommu/misses", "xlats", "IOTLB misses (page walks)",
		func() float64 { return float64(u.Misses.Total()) })
}

// Validate reports the first invalid parameter. The zero Config (Enabled
// false) is valid: a disabled IOMMU needs no other parameters.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.IOTLBEntries <= 0 {
		return fmt.Errorf("iommu: IOTLBEntries %d must be positive", c.IOTLBEntries)
	}
	if c.PageBytes <= 0 {
		return fmt.Errorf("iommu: PageBytes %d must be positive", c.PageBytes)
	}
	if c.WalkLevels <= 0 {
		return fmt.Errorf("iommu: WalkLevels %d must be positive", c.WalkLevels)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("iommu: negative HitLatency %v", c.HitLatency)
	}
	if c.WorkingSetPages <= 0 {
		return fmt.Errorf("iommu: WorkingSetPages %d must be positive", c.WorkingSetPages)
	}
	return nil
}
