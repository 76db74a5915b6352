/* Monotonic nanosecond clock for the benchmark: one vDSO call, no
   allocation, so per-batch and per-request timestamps stay cheap. */
#include <time.h>
#include <caml/mlvalues.h>

value pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
