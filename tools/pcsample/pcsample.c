/* pcsample: a program-counter sampler for the process it is loaded into.

   Load it with LD_PRELOAD.  It arms ITIMER_PROF, so SIGPROF arrives after
   every millisecond of CPU time the process spends (at most once per
   scheduler tick), and the handler records the program counter the signal
   interrupted.  At exit it writes the samples, the executable's path, the
   process's command line and a copy of its own memory map to
   PCSAMPLE_OUT.<pid>; symbolize.py turns one or more such files into a
   profile.  Child processes inherit
   LD_PRELOAD and PCSAMPLE_OUT, so each writes a file of its own.

   Build:  gcc -O2 -Wall -shared -fPIC -o pcsample.so pcsample.c

   It needs no privilege and changes no system setting: the timer, the
   handler and the output file all belong to the sampled process.  Without
   PCSAMPLE_OUT it does nothing. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
#define PERIOD_USEC 1000

static unsigned long samples[MAX_SAMPLES];
static unsigned long nsamples; /* updated atomically: any thread may take the signal */
static const char *out_prefix;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  ucontext_t *uc = ctx;
  unsigned long pc;
#if defined(__x86_64__)
  pc = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  pc = (unsigned long)uc->uc_mcontext.pc;
#else
  pc = 0;
  (void)uc;
#endif
  unsigned long i = __atomic_fetch_add(&nsamples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

__attribute__((constructor)) static void pcsample_start(void) {
  out_prefix = getenv("PCSAMPLE_OUT");
  if (out_prefix == NULL || *out_prefix == '\0') return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = PERIOD_USEC;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void pcsample_stop(void) {
  if (out_prefix == NULL || *out_prefix == '\0') return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  char path[4096];
  snprintf(path, sizeof path, "%s.%ld", out_prefix, (long)getpid());
  FILE *out = fopen(path, "w");
  if (out == NULL) return;
  char exe[4096];
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  unsigned long n = __atomic_load_n(&nsamples, __ATOMIC_RELAXED);
  fprintf(out, "exe %s\n", exe);
  /* The command line, its NUL separators written as spaces, so processes
     of the same executable can be told apart. */
  FILE *cmd = fopen("/proc/self/cmdline", "r");
  if (cmd != NULL) {
    fputs("args", out);
    int c, sep = 1;
    while ((c = fgetc(cmd)) != EOF) {
      if (sep) fputc(' ', out);
      sep = c == '\0';
      if (!sep) fputc(c, out);
    }
    fputc('\n', out);
    fclose(cmd);
  }
  fprintf(out, "dropped %lu\n", n > MAX_SAMPLES ? n - MAX_SAMPLES : 0);
  FILE *maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[8192];
    while (fgets(line, sizeof line, maps) != NULL) fprintf(out, "map %s", line);
    fclose(maps);
  }
  if (n > MAX_SAMPLES) n = MAX_SAMPLES;
  for (unsigned long i = 0; i < n; i++) fprintf(out, "pc %lx\n", samples[i]);
  fclose(out);
}
