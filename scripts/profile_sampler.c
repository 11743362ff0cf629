/* A SIGPROF sampler to LD_PRELOAD into a program: every ITIMER_PROF
 * tick of process CPU time records the interrupted instruction pointer.
 * At exit it writes the samples to $PROFILE_OUT.pcs (one hex address a
 * line) and a copy of /proc/self/maps to $PROFILE_OUT.maps, so the
 * addresses can be mapped back to files. scripts/profile.sh builds and
 * reads it. x86-64 and aarch64 Linux. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 21)
static unsigned long pcs[MAX_SAMPLES];
static volatile unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    ucontext_t *uc = ctx;
    (void)sig, (void)info;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#else
    unsigned long pc = uc->uc_mcontext.pc;
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) pcs[i] = pc;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    /* Ask for 1 kHz; the kernel delivers at most its tick rate. */
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *base = getenv("PROFILE_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.pcs", base ? base : "profile");
    FILE *f = fopen(path, "w");
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; f && i < n; i++) fprintf(f, "%lx\n", pcs[i]);
    if (f) fclose(f);
    snprintf(path, sizeof path, "%s.maps", base ? base : "profile");
    FILE *in = fopen("/proc/self/maps", "r"), *out = fopen(path, "w");
    for (int c; in && out && (c = fgetc(in)) != EOF;) fputc(c, out);
    if (in) fclose(in);
    if (out) fclose(out);
}
