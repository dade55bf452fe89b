/* The few OS calls the benchmark needs that the Unix library lacks. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

/* CLOCK_MONOTONIC in nanoseconds, as an immediate int: reading it never
   allocates. */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Pin the calling process to the k-th CPU it was allowed at its first
   call. Returns 0, or -1 when fewer than k+1 CPUs are allowed or the
   call fails. */
value perfbench_pin_cpu(value k)
{
  static cpu_set_t allowed;
  static int have = 0;
  cpu_set_t one;
  int seen = 0;
  if (!have) {
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
    have = 1;
  }
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (seen++ == Int_val(k)) {
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      return Val_int(sched_setaffinity(0, sizeof one, &one));
    }
  }
  return Val_int(-1);
}

/* Move the calling process to SCHED_IDLE: it runs only when its CPU
   would otherwise be idle. Returns 0 or -1. */
value perfbench_sched_idle(value unit)
{
  struct sched_param p = { 0 };
  (void)unit;
  return Val_int(sched_setscheduler(0, SCHED_IDLE, &p));
}
