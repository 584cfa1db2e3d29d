/* Monotonic nanosecond clock for span and latency timing.  The OCaml
   standard library only offers Unix.gettimeofday (microsecond, wall
   clock), too coarse for the framing and parsing spans. */

#include <time.h>
#include <caml/mlvalues.h>

intnat mondetbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value mondetbench_now_ns_byte(value unit)
{
  return Val_long(mondetbench_now_ns(unit));
}
