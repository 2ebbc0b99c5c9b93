// Package gmi defines the Generic Memory-management Interface of
// Abrossimov, Rozier and Shapiro (SOSP'89): a kernel-independent,
// architecture-independent boundary between an operating-system kernel and
// a replaceable memory manager.
//
// The package renders the paper's Tables 1-4 as Go interfaces:
//
//   - Table 1 (segment access):    Cache.Copy, Cache.Move
//   - Table 2 (address spaces):    Context and Region
//   - Table 3 (upcalls):           Segment (implemented by segment managers)
//   - Table 4 (cache management):  Cache.FillUp/CopyBack/MoveBack/Flush/...
//
// Two memory managers implement this interface in the repository: the PVM
// (internal/core), the paper's contribution, and a Mach-style shadow-object
// baseline (internal/machvm). Everything above the GMI — the Nucleus
// segment manager, IPC, the Chorus/MIX Unix layer — is written against
// this package only, which is exactly the replaceability property the
// paper claims.
package gmi

// VA is a virtual address. Offsets and sizes within segments and caches
// are plain int64 byte counts.
type VA uint64

// MemoryManager is the creation surface of a GMI implementation: the
// operations the host kernel uses to make caches and contexts. (In the
// paper these are the free-standing cacheCreate and contextCreate
// procedures of Tables 1 and 2.)
type MemoryManager interface {
	// Name identifies the implementation ("pvm", "mach").
	Name() string

	// PageSize returns the page size of the underlying (simulated) MMU.
	PageSize() int

	// CacheCreate binds segment seg to a newly created, empty cache
	// (Table 1). The cache can then be used in explicit transfers and
	// mapped into contexts.
	CacheCreate(seg Segment) Cache

	// TempCacheCreate creates a cache with no segment yet: a zero-filled
	// temporary, as used by the Nucleus for rgnAllocate. Per section
	// 5.1.2, a backing segment is assigned (via the SegmentAllocator
	// given at construction) on the first pushOut.
	TempCacheCreate() Cache

	// ContextCreate creates an empty address space (Table 2).
	ContextCreate() (Context, error)
}

// Segment is the upcall interface (Table 3) that the memory manager
// invokes on segment managers to move data between a cache and the
// secondary-storage object it caches. Implementations respond with the
// Table 4 downcalls: PullIn answers by calling c.FillUp, PushOut answers
// by calling c.CopyBack or c.MoveBack.
//
// While a PullIn or PushOut is in progress for a fragment, the memory
// manager suspends concurrent access to that fragment (section 3.3.3).
type Segment interface {
	// PullIn asks the segment to provide [off, off+size) with the given
	// access mode, by calling c.FillUp.
	PullIn(c Cache, off, size int64, mode Prot) error

	// GetWriteAccess requests write access to data previously pulled in
	// read-only. (A distributed-coherence mapper uses this to revoke
	// other sites' copies first.)
	GetWriteAccess(c Cache, off, size int64) error

	// PushOut asks the segment to save [off, off+size), by calling
	// c.CopyBack or c.MoveBack.
	PushOut(c Cache, off, size int64) error
}

// SegmentAllocator is the hook through which the memory manager declares a
// unilaterally created cache (a history object, a temporary) to the upper
// layer so it can be swapped out: the segmentCreate upcall of Table 3.
type SegmentAllocator interface {
	SegmentCreate(c Cache) (Segment, error)
}

// UsageAdviser stays only for the repository benchmark's segment wrapper; nothing calls it.
type UsageAdviser interface {
	NoteEvict(off, size int64)
	NoteIdle(off, size int64)
}

// Cache manages the real memory currently in use for one segment on this
// site. A segment is always accessed through its cache, whether the access
// is mapped (via regions) or explicit (via Copy/Move); that single cache is
// the paper's answer to the dual-caching problem.
type Cache interface {
	// Segment returns the segment this cache is bound to, or nil for a
	// temporary cache that has not yet been assigned one.
	Segment() Segment

	// Copy copies size bytes from offset srcOff of this cache to offset
	// dstOff of dst (Table 1). The implementation may defer the copy
	// (history objects or per-page stubs); it may fault and block.
	Copy(dst Cache, dstOff, srcOff, size int64) error

	// Move is Copy with the source contents becoming undefined, allowing
	// the implementation to retag real pages instead of copying when
	// alignment permits.
	Move(dst Cache, dstOff, srcOff, size int64) error

	// ReadAt and WriteAt are the explicit (read/write) access path to
	// the segment through its cache — the other half of the paper's
	// unified-cache answer to the dual-caching problem. In the real
	// kernel these run through a kernel mapping of the cache; here they
	// access the cached frames directly, faulting data in as needed.
	ReadAt(off int64, buf []byte) error
	WriteAt(off int64, data []byte) error

	// FillUp provides data for a fragment being pulled in (Table 4). It
	// is called by a segment manager while servicing PullIn; it installs
	// the data and wakes any access blocked on the fragment.
	FillUp(off int64, data []byte, mode Prot) error

	// CopyBack reads len(buf) bytes at off out of the cache, for a
	// segment manager servicing PushOut.
	CopyBack(off int64, buf []byte) error

	// MoveBack is CopyBack, additionally releasing the cached frames.
	MoveBack(off int64, buf []byte) error

	// Flush writes modified data in the range back to the segment (via
	// PushOut upcalls) and releases the frames.
	Flush(off, size int64) error

	// Sync writes modified data back but keeps the frames cached.
	Sync(off, size int64) error

	// Invalidate discards cached data in the range without writing it
	// back.
	Invalidate(off, size int64) error

	// SetProtection caps the access mode of cached data in the range;
	// a distributed-coherence mapper uses it to revoke write access.
	SetProtection(off, size int64, p Prot) error

	// LockInMemory pins the range into real memory (it may cause
	// pullIns); Unlock releases the pin.
	LockInMemory(off, size int64) error
	Unlock(off, size int64) error

	// Resident returns the number of resident pages, for tests and the
	// segment-caching policy.
	Resident() int

	// Destroy releases the cache. Cached data is discarded; pages still
	// needed by deferred copies are migrated per the history-object
	// rules first.
	Destroy() error
}

// Context is a protected virtual address space, sparsely populated with
// non-overlapping regions (Table 2).
type Context interface {
	// RegionCreate maps cache c into the context: [addr, addr+size)
	// becomes a window onto [off, off+size) of the cache's segment.
	RegionCreate(addr VA, size int64, p Prot, c Cache, off int64) (Region, error)

	// FindRegion returns the region containing addr, if any.
	FindRegion(addr VA) (Region, bool)

	// Regions lists the regions sorted by start address.
	Regions() []Region

	// Switch makes this the current user context.
	Switch()

	// Destroy tears down the address space and all its regions.
	Destroy() error

	// Read and Write are the simulated CPU load/store path: they access
	// memory through the (simulated) MMU, taking and resolving page
	// faults exactly as user instructions would on real hardware. They
	// stand in for the machine's memory bus, which a Go process cannot
	// provide.
	Read(va VA, buf []byte) error
	Write(va VA, data []byte) error
}

// RegionStatus is the information returned by region.status (Table 2).
type RegionStatus struct {
	Addr   VA
	Size   int64
	Prot   Prot
	Cache  Cache
	Offset int64
	Locked bool
}

// Region is a contiguous mapped portion of a context (Table 2). A single
// protection applies to the whole region; to protect parts differently,
// split the region first. Splits never occur spontaneously, so the upper
// layers can attach meaning to region identity.
type Region interface {
	// Split cuts the region in two at the given offset from its start;
	// the receiver keeps [0, off), the returned region holds the rest.
	Split(off int64) (Region, error)

	// SetProtection changes the hardware protection of the whole region.
	SetProtection(p Prot) error

	// LockInMemory pins the region's data in real memory and freezes its
	// MMU mappings, so access never faults — the real-time guarantee.
	LockInMemory() error

	// Unlock allows faults (and page-out) again.
	Unlock() error

	// Status reports address, size, protection, cache and offset.
	Status() RegionStatus

	// Destroy unmaps the region from its context.
	Destroy() error
}
