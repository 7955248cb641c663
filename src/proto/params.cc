#include "proto/params.h"

namespace lrs::proto {

const std::uint8_t kDefaultKeyBytes[8] = {0x42, 0x13, 0x37, 0x99,
                                          0x1e, 0xa9, 0x5e, 0xc7};

}  // namespace lrs::proto
