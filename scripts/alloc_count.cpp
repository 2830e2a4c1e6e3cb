// Heap-allocation counter, loaded into a program with LD_PRELOAD or
// linked into it (as scripts/alloc_phases.cpp is).
//
//   c++ -O2 -shared -fPIC scripts/alloc_count.cpp -o alloc_count.so
//   LD_PRELOAD=$PWD/alloc_count.so ./program
//
// gprof samples only the program's own code, so time spent in libc
// malloc and free never shows up in its profile. This counter makes that
// cost visible: it counts every malloc, calloc, realloc and aligned
// allocation the program makes (operator new included, as libstdc++
// forwards it to malloc) and records the call stack of every kPeriod-th
// one. At normal exit it writes alloc_count.out into the working
// directory:
//
//   allocations <n>
//   period <kPeriod>
//   <samples> <offset> <offset> ...     one line per distinct stack
//
// A program linked with the counter can read the running total with
// alloc_count_total() and weigh the stacks sampled from then on with
// alloc_count_weight(): 0 leaves them out, -1 subtracts them, so a phase
// sampled once at +1 and once at -1 cancels out of the report.
//
// Each offset is a return address inside the main executable, minus one
// and relative to its load base, innermost first, ready for addr2line;
// frames in shared libraries are left out. scripts/profile.sh turns the
// stacks into the top allocating call sites. Stack recording assumes a
// single-threaded program; a process that leaves through _exit (a forked
// child) writes nothing.
#include <execinfo.h>
#include <link.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* p, std::size_t size);
void* __libc_memalign(std::size_t align, std::size_t size);
}

namespace {

constexpr std::uint64_t kPeriod = 16;
constexpr int kDepth = 16;                // frames captured per sample
constexpr std::size_t kStacks = 1 << 14;  // distinct stacks kept

struct Stack {
  bool used = false;
  std::int64_t samples = 0;  // weighted
  int depth = 0;
  void* frames[kDepth];
};

std::atomic<std::uint64_t> g_allocations{0};
std::int64_t g_weight = 1;  // added to a stack's samples per sample
// Distinct sampled stacks; once all are taken, new stacks go unrecorded.
Stack g_stacks[kStacks];
thread_local bool t_inside = false;  // backtrace() may allocate itself

std::uint64_t hash_frames(void* const* frames, int depth) {
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < depth; ++i) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(frames[i])) * 1099511628211ull;
  }
  return h;
}

void record_stack() {
  void* frames[kDepth + 1];
  // Frame 0 is the interposed allocator itself.
  const int depth = backtrace(frames, kDepth + 1) - 1;
  if (depth <= 0) return;
  void* const* stack = frames + 1;
  std::size_t i = hash_frames(stack, depth) & (kStacks - 1);
  for (std::size_t probes = 0; probes < kStacks; ++probes) {
    Stack& s = g_stacks[i];
    if (!s.used) {
      s.used = true;
      s.depth = depth;
      std::memcpy(s.frames, stack,
                  sizeof(void*) * static_cast<std::size_t>(depth));
    }
    if (s.depth == depth &&
        std::memcmp(s.frames, stack,
                    sizeof(void*) * static_cast<std::size_t>(depth)) == 0) {
      s.samples += g_weight;
      return;
    }
    i = (i + 1) & (kStacks - 1);
  }
}

void count() {
  if (t_inside) return;
  const std::uint64_t n =
      g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n % kPeriod != 0 || g_weight == 0) return;
  t_inside = true;
  record_stack();
  t_inside = false;
}

// Load base and mapped address range of the main executable.
struct Image {
  std::uintptr_t base = 0;
  std::uintptr_t lo = UINTPTR_MAX;
  std::uintptr_t hi = 0;
};

int find_main_image(dl_phdr_info* info, std::size_t, void* data) {
  auto* image = static_cast<Image*>(data);
  image->base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    const std::uintptr_t start = info->dlpi_addr + ph.p_vaddr;
    if (start < image->lo) image->lo = start;
    if (start + ph.p_memsz > image->hi) image->hi = start + ph.p_memsz;
  }
  return 1;  // the first object listed is the main program
}

__attribute__((destructor)) void write_report() {
  t_inside = true;
  Image image;
  dl_iterate_phdr(find_main_image, &image);
  std::FILE* out = std::fopen("alloc_count.out", "w");
  if (!out) return;
  std::fprintf(out, "allocations %llu\nperiod %llu\n",
               static_cast<unsigned long long>(g_allocations.load()),
               static_cast<unsigned long long>(kPeriod));
  for (const Stack& s : g_stacks) {
    if (s.samples == 0) continue;
    std::fprintf(out, "%lld", static_cast<long long>(s.samples));
    for (int i = 0; i < s.depth; ++i) {
      const auto pc = reinterpret_cast<std::uintptr_t>(s.frames[i]);
      if (pc < image.lo || pc >= image.hi) continue;
      std::fprintf(out, " %lx",
                   static_cast<unsigned long>(pc - 1 - image.base));
    }
    std::fprintf(out, "\n");
  }
  std::fclose(out);
}

}  // namespace

extern "C" {

std::uint64_t alloc_count_total() { return g_allocations.load(); }

void alloc_count_weight(int weight) { g_weight = weight; }

void* malloc(std::size_t size) {
  count();
  return __libc_malloc(size);
}

void* calloc(std::size_t n, std::size_t size) {
  count();
  return __libc_calloc(n, size);
}

void* realloc(void* p, std::size_t size) {
  count();
  return __libc_realloc(p, size);
}

void* memalign(std::size_t align, std::size_t size) {
  count();
  return __libc_memalign(align, size);
}

void* aligned_alloc(std::size_t align, std::size_t size) {
  count();
  return __libc_memalign(align, size);
}

int posix_memalign(void** out, std::size_t align, std::size_t size) {
  count();
  void* p = __libc_memalign(align, size);
  if (!p) return ENOMEM;
  *out = p;
  return 0;
}

}  // extern "C"
