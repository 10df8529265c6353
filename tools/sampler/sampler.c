/* A SIGPROF sampling profiler for hosts without `perf`.
 *
 *   cc -O2 -shared -fPIC -o sampler.so tools/sampler/sampler.c
 *   LD_PRELOAD=$PWD/sampler.so ./program args...
 *   python3 tools/sampler/symbolize.py sampler.<pid>.txt
 *
 * Loaded into a process, it arms ITIMER_PROF, records the interrupted
 * instruction pointer of every tick of the process's CPU time in memory,
 * and at exit writes the samples and /proc/self/maps to sampler.<pid>.txt
 * in the working directory. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long samples[MAX_SAMPLES];
static unsigned long n_samples;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], line[4096];
    snprintf(path, sizeof path, "sampler.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "ip %lx\n", samples[i]);
    fclose(maps);
    fclose(out);
}
