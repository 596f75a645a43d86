/**
 * @file
 * gtest prints a SimResult as its BENCH json "result" object, so a
 * failed EXPECT_EQ(serial, sharded) shows both results field by field.
 */
#ifndef ROCOSIM_TESTS_RESULT_PRINT_H_
#define ROCOSIM_TESTS_RESULT_PRINT_H_

#include <ostream>

#include "exp/json_out.h"
#include "sim/simulator.h"

namespace noc {

inline void
PrintTo(const SimResult &r, std::ostream *os)
{
    *os << exp::resultJson(r);
}

} // namespace noc

#endif // ROCOSIM_TESTS_RESULT_PRINT_H_
