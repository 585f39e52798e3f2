/* SIGPROF sampler for scripts/profile.sh (perf and valgrind are not on the
 * box). LD_PRELOAD it: every millisecond of CPU time it appends the
 * interrupted stack to $PROFILE_OUT, one line per sample, leaf first, each
 * frame as a hex offset into the main executable (0 = a frame outside it,
 * e.g. libc). Return addresses are moved back one byte, onto the call. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>

static int fd = -1;
static uintptr_t lo, hi;

/* The first object dl_iterate_phdr reports is the executable. */
static int main_range(struct dl_phdr_info *info, size_t size, void *data) {
    lo = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && lo + ph->p_vaddr + ph->p_memsz > hi)
            hi = lo + ph->p_vaddr + ph->p_memsz;
    }
    return 1;
}

static void on_prof(int sig) {
    void *stack[64];
    char line[64 * 17 + 1], *p = line;
    int n = backtrace(stack, 64);
    /* 0 is this handler, 1 the signal trampoline, 2 the interrupted pc. */
    for (int i = 2; i < n; i++) {
        uintptr_t a = (uintptr_t)stack[i];
        char hex[16];
        int k = 0;
        a = a >= lo && a < hi ? a - lo - (i > 2) : 0;
        do
            hex[k++] = "0123456789abcdef"[a & 15];
        while (a >>= 4);
        while (k)
            *p++ = hex[--k];
        *p++ = ' ';
    }
    *p++ = '\n';
    if (write(fd, line, p - line) < 0)
        fd = -1;
}

__attribute__((constructor)) static void start(void) {
    const char *out = getenv("PROFILE_OUT");
    void *warm[4];
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    if (!out || (fd = open(out, O_WRONLY | O_CREAT | O_TRUNC, 0644)) < 0)
        return;
    backtrace(warm, 4); /* loads the unwinder outside the handler */
    dl_iterate_phdr(main_range, NULL);
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &every_ms, NULL);
}
