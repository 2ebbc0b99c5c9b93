// Package cost implements the simulated clock used to regenerate the
// paper's performance tables (Abrossimov et al., SOSP'89, section 5.3).
//
// A real kernel measures wall-clock milliseconds on a Sun-3/60; a Go
// simulation cannot. Instead, every primitive virtual-memory event (a page
// protection change, a frame allocation, a bzero of one page, ...) is
// counted at the point in the code where the real kernel would perform it,
// and charged a unit cost calibrated from the constants the paper itself
// reports. The sum of the charges is the simulated elapsed time. Because
// the paper derives its unit costs back out of its own tables (section
// 5.3.2), charging the same unit costs to the same event counts
// regenerates the tables' shape.
package cost

// Event identifies one primitive memory-management operation. Events are
// charged where the work happens: the machine-dependent layer charges MMU
// events, the PVM charges structural events, the Mach baseline charges the
// Mach-specific machinery events.
type Event uint8

const (
	// Structural operations (machine-independent PVM / Nucleus layer).
	EvRegionCreate   Event = iota // allocate + insert a region descriptor
	EvRegionDestroy               // remove + free a region descriptor
	EvCacheCreate                 // allocate a local-cache descriptor
	EvCacheDestroy                // tear down a local-cache descriptor
	EvContextCreate               // create an address space
	EvContextDestroy              // destroy an address space
	EvContextSwitch               // activate another address space
	EvTreeInsert                  // history-tree bookkeeping for one deferred copy
	EvHistoryLookup               // resolve a cache miss through the history tree
	EvStubInstall                 // install one per-virtual-page copy-on-write stub
	EvGlobalMapOp                 // one global-map insert/lookup/remove

	// Machine-dependent (MMU) operations.
	EvPageMap        // enter one page translation
	EvPageUnmap      // remove one page translation
	EvPageProtect    // change hardware protection of one page
	EvPageInvalidate // invalidate one page of virtual address space at region destroy
	EvTLBFlush       // flush a TLB; no MMU port charges it (their tables are walked in software)

	// Physical memory operations.
	EvFrameAlloc // allocate one page frame
	EvFrameFree  // release one page frame
	EvBzeroPage  // fill one page frame with zeroes
	EvBcopyPage  // copy one page frame
	EvBzeroByte  // zero one byte (sub-page explicit transfers)
	EvBcopyByte  // copy one byte (sub-page explicit transfers)

	// Fault handling and data movement.
	EvFault   // trap entry + region lookup for one page fault
	EvPullIn  // one pullIn upcall to a segment manager
	EvPushOut // one pushOut upcall to a segment manager

	// Simulated device / transport costs charged by mappers and IPC.
	EvDiskSeek  // positioning cost, once per contiguous transfer
	EvDiskRead  // one page transferred from simulated secondary storage
	EvDiskWrite // one page transferred to simulated secondary storage
	EvIPCSend   // one IPC message enqueue
	EvIPCRecv   // one IPC message dequeue

	// Mach-baseline-specific machinery (see calibration.go for the
	// derivation of each constant from the paper's Mach measurements).
	EvMachObjectCreate  // create one vm_object
	EvMachObjectDestroy // terminate one vm_object
	EvMachPortSetup     // allocate the pager port machinery for an object
	EvMachEntrySetup    // vm_map locking + entry coalescing for one map op
	EvMachObjectLock    // object locking discipline on one fault
	EvMachShadowCreate  // create one shadow object
	EvMachCopySetup     // vm_map_copyin/copyout bookkeeping for one copy
	EvMachChainWalk     // follow one hop of a shadow chain
	EvMachPmapRangeOp   // per-page pmap work during range operations

	NumEvents // sentinel; must be last
)

var eventNames = [NumEvents]string{
	EvRegionCreate:      "regionCreate",
	EvRegionDestroy:     "regionDestroy",
	EvCacheCreate:       "cacheCreate",
	EvCacheDestroy:      "cacheDestroy",
	EvContextCreate:     "contextCreate",
	EvContextDestroy:    "contextDestroy",
	EvContextSwitch:     "contextSwitch",
	EvTreeInsert:        "treeInsert",
	EvHistoryLookup:     "historyLookup",
	EvStubInstall:       "stubInstall",
	EvGlobalMapOp:       "globalMapOp",
	EvPageMap:           "pageMap",
	EvPageUnmap:         "pageUnmap",
	EvPageProtect:       "pageProtect",
	EvPageInvalidate:    "pageInvalidate",
	EvTLBFlush:          "tlbFlush",
	EvFrameAlloc:        "frameAlloc",
	EvFrameFree:         "frameFree",
	EvBzeroPage:         "bzeroPage",
	EvBcopyPage:         "bcopyPage",
	EvBzeroByte:         "bzeroByte",
	EvBcopyByte:         "bcopyByte",
	EvFault:             "fault",
	EvPullIn:            "pullIn",
	EvPushOut:           "pushOut",
	EvDiskSeek:          "diskSeek",
	EvDiskRead:          "diskRead",
	EvDiskWrite:         "diskWrite",
	EvIPCSend:           "ipcSend",
	EvIPCRecv:           "ipcRecv",
	EvMachObjectCreate:  "machObjectCreate",
	EvMachObjectDestroy: "machObjectDestroy",
	EvMachPortSetup:     "machPortSetup",
	EvMachEntrySetup:    "machEntrySetup",
	EvMachObjectLock:    "machObjectLock",
	EvMachShadowCreate:  "machShadowCreate",
	EvMachCopySetup:     "machCopySetup",
	EvMachChainWalk:     "machChainWalk",
	EvMachPmapRangeOp:   "machPmapRangeOp",
}

// String returns the mnemonic name of the event.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "event(?)"
}
