/* A SIGPROF sampler to LD_PRELOAD into a frame-pointer build: every
 * 4 ms of CPU time (INTERVAL_US, the kernel's 250 Hz tick) it records the
 * interrupted instruction pointer and the return addresses of the rbp chain,
 * and at exit writes them to PROFILE_OUT (default profile.raw), one sample a
 * line, followed by a copy of /proc/self/maps.  x86-64 Linux only.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so tools/sampler.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_WORDS (1 << 24)
#define MAX_FRAMES 64
#define INTERVAL_US 4000 /* ITIMER_PROF fires no faster than the kernel's tick */
static uintptr_t words[MAX_WORDS]; /* per sample: frame count, then frames */
static volatile long used;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    mcontext_t *regs = &((ucontext_t *)context)->uc_mcontext;
    uintptr_t frames[MAX_FRAMES], sp = regs->gregs[REG_RSP];
    uintptr_t *fp = (uintptr_t *)regs->gregs[REG_RBP];
    int n = 0;
    frames[n++] = regs->gregs[REG_RIP];
    /* Follow the chain while it stays on this stack and climbs it. */
    while (n < MAX_FRAMES && (uintptr_t)fp >= sp && (uintptr_t)fp < sp + (8 << 20)
           && ((uintptr_t)fp & 7) == 0 && fp[1] != 0) {
        frames[n++] = fp[1] - 1; /* inside the call instruction */
        if ((uintptr_t *)fp[0] <= fp) break;
        fp = (uintptr_t *)fp[0];
    }
    long at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > MAX_WORDS) return;
    words[at] = n;
    for (int i = 0; i < n; i++) words[at + 1 + i] = frames[i];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct itimerval timer = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *out = fopen(path ? path : "profile.raw", "w");
    if (!out) return;
    long end = used < MAX_WORDS ? used : MAX_WORDS;
    for (long at = 0; at < end && at + (long)words[at] < end; at += words[at] + 1) {
        for (uintptr_t i = 1; i <= words[at]; i++) fprintf(out, "%lx ", (unsigned long)words[at + i]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    if (maps) fclose(maps);
    fclose(out);
}
