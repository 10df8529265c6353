/* Count a process's socket sends and receives, for hosts without `strace`.
 *
 *   cc -O2 -shared -fPIC -o syscount.so tools/syscount/syscount.c -ldl
 *   LD_PRELOAD=$PWD/syscount.so ./program args...
 *
 * Loaded into a process, it wraps libc's `send` and `recv` (what Rust's
 * `TcpStream` write and read call on Linux), counts the calls, and at a
 * normal exit writes `send <n> recv <n>` to syscount.<pid>.txt in the
 * working directory. Children inherit LD_PRELOAD, so a jobbench run
 * leaves one file for the client and one for each addict-serve it
 * started. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stdio.h>
#include <sys/socket.h>
#include <unistd.h>

static unsigned long n_send, n_recv;

ssize_t send(int fd, const void *buf, size_t len, int flags) {
    static ssize_t (*real)(int, const void *, size_t, int);
    if (!real)
        real = (ssize_t (*)(int, const void *, size_t, int))dlsym(RTLD_NEXT, "send");
    __atomic_fetch_add(&n_send, 1, __ATOMIC_RELAXED);
    return real(fd, buf, len, flags);
}

ssize_t recv(int fd, void *buf, size_t len, int flags) {
    static ssize_t (*real)(int, void *, size_t, int);
    if (!real)
        real = (ssize_t (*)(int, void *, size_t, int))dlsym(RTLD_NEXT, "recv");
    __atomic_fetch_add(&n_recv, 1, __ATOMIC_RELAXED);
    return real(fd, buf, len, flags);
}

__attribute__((destructor)) static void report(void) {
    char path[64];
    snprintf(path, sizeof path, "syscount.%d.txt", (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    fprintf(f, "send %lu recv %lu\n", n_send, n_recv);
    fclose(f);
}
