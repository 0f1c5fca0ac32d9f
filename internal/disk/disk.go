// Package disk provides a page-granular view of a simulated storage device:
// a bump allocator carves the device into files, and files expose
// asynchronous page and multi-page ("block") reads. All database I/O goes
// through this layer, so the band a scan touches is simply the page extent
// of its file — the quantity the DTT/QDTT cost models take as input.
package disk

import (
	"fmt"

	"pioqo/internal/device"
	"pioqo/internal/sim"
)

// PageSize is the database page size in bytes. The paper's experiments use
// 4 KB pages (its Fig. 1 measures parallel 4 KB random reads).
const PageSize = 4096

// BlockPages is the run of consecutive pages a sequential reader asks the
// device for in one request ("a large block consisting of several
// consecutive pages is read at a time", §2): the full scan's readahead unit,
// the circulating scan's delivery unit, and the request calibration measures
// the sequential band with. It is one constant so that the cost model prices
// the request the executor issues.
const BlockPages = 64

// Manager allocates page extents on a device.
type Manager struct {
	dev       device.Device
	nextPage  int64
	pageCount int64
	files     []*File
}

// NewManager returns a manager over the whole of dev.
func NewManager(dev device.Device) *Manager {
	return &Manager{dev: dev, pageCount: dev.Size() / PageSize}
}

// Device returns the underlying device.
func (m *Manager) Device() device.Device { return m.dev }

// Capacity returns the total number of pages on the device.
func (m *Manager) Capacity() int64 { return m.pageCount }

// Free returns the number of unallocated pages.
func (m *Manager) Free() int64 { return m.pageCount - m.nextPage }

// Allocate reserves a contiguous extent of pages and returns it as a File.
// It fails when the device has too little space left.
func (m *Manager) Allocate(name string, pages int64) (*File, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("disk: allocating %d pages for %q", pages, name)
	}
	if m.nextPage+pages > m.pageCount {
		return nil, fmt.Errorf("disk: %q needs %d pages, only %d free",
			name, pages, m.Free())
	}
	f := &File{
		m:        m,
		id:       FileID(len(m.files)),
		name:     name,
		basePage: m.nextPage,
		pages:    pages,
	}
	m.nextPage += pages
	m.files = append(m.files, f)
	return f, nil
}

// MustAllocate is Allocate for callers whose sizes are known to fit, such
// as test and experiment setup.
func (m *Manager) MustAllocate(name string, pages int64) *File {
	f, err := m.Allocate(name, pages)
	if err != nil {
		panic(err)
	}
	return f
}

// FileID identifies a file within its manager; buffer-pool frame keys use
// it to distinguish pages of different files.
type FileID int32

// File is a contiguous page extent on a device.
type File struct {
	m        *Manager
	id       FileID
	name     string
	basePage int64
	pages    int64
}

// ID returns the file's identity within its manager.
func (f *File) ID() FileID { return f.id }

// Name returns the allocation name.
func (f *File) Name() string { return f.name }

// Pages returns the extent length in pages. For a scan that touches the
// whole file this is also its band size in the DTT/QDTT sense.
func (f *File) Pages() int64 { return f.pages }

// Offset returns the device byte offset of the given page.
func (f *File) Offset(page int64) int64 {
	f.check(page, 1)
	return (f.basePage + page) * PageSize
}

// check panics on out-of-extent access: page indexing bugs must not be
// silently converted into reads of a neighbouring file.
func (f *File) check(page int64, count int) {
	if page < 0 || count <= 0 || page+int64(count) > f.pages {
		panic(fmt.Sprintf("disk: %q access [%d,+%d) outside extent of %d pages",
			f.name, page, count, f.pages))
	}
}

// ReadPage submits an asynchronous read of one page.
func (f *File) ReadPage(page int64) *sim.Completion {
	return f.ReadRun(page, 1)
}

// ReadRun submits an asynchronous read of count consecutive pages as a
// single device request. Scans use multi-page runs to get the large-transfer
// sequential advantage the paper's prefetching relies on.
func (f *File) ReadRun(page int64, count int) *sim.Completion {
	f.check(page, count)
	return f.m.dev.ReadAt((f.basePage+page)*PageSize, count*PageSize)
}

// WriteRun submits an asynchronous write of count consecutive pages as a
// single device request: the buffer pool's write-back of a run of dirty
// frames.
func (f *File) WriteRun(page int64, count int) *sim.Completion {
	f.check(page, count)
	return f.m.dev.WriteAt((f.basePage+page)*PageSize, count*PageSize)
}
