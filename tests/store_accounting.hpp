// Durable-byte conservation for the object-store tests: every server
// holds exactly the bytes the live metadata places on it.
#pragma once

#include <gtest/gtest.h>

#include "storage/object_store.hpp"

namespace evolve::storage {

/// Checks durable_bytes == expected_durable_bytes on every server of
/// `store`. Call once the simulation has drained (no write in flight).
inline void expect_durable_accounting(const ObjectStore& store) {
  for (cluster::NodeId server : store.servers()) {
    EXPECT_EQ(store.durable_bytes(server),
              store.expected_durable_bytes(server))
        << "server " << server;
  }
}

}  // namespace evolve::storage
