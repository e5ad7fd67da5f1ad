// Umbrella header for the SLP-DAS library.
//
// Reproduction of Kirton, Bradbury & Jhumka, "Source Location
// Privacy-Aware Data Aggregation Scheduling for Wireless Sensor Networks",
// ICDCS 2017. See README.md for a guided tour and DESIGN.md for the
// module-by-module inventory.
#pragma once

#include "slpdas/rng.hpp"

#include "slpdas/wsn/graph.hpp"
#include "slpdas/wsn/paths.hpp"
#include "slpdas/wsn/topology.hpp"
#include "slpdas/wsn/topology_spec.hpp"

#include "slpdas/sim/event_queue.hpp"
#include "slpdas/sim/message.hpp"
#include "slpdas/sim/radio.hpp"
#include "slpdas/sim/simulator.hpp"
#include "slpdas/sim/time.hpp"
#include "slpdas/sim/trace.hpp"

#include "slpdas/mac/frame.hpp"
#include "slpdas/mac/render.hpp"
#include "slpdas/mac/schedule.hpp"
#include "slpdas/mac/schedule_io.hpp"

#include "slpdas/das/centralized.hpp"
#include "slpdas/das/first_fit.hpp"
#include "slpdas/das/messages.hpp"
#include "slpdas/das/protocol.hpp"

#include "slpdas/phantom/phantom_routing.hpp"

#include "slpdas/slp/slp_das.hpp"

#include "slpdas/attacker/model.hpp"
#include "slpdas/attacker/runtime.hpp"

#include "slpdas/verify/das_checker.hpp"
#include "slpdas/verify/reachability.hpp"
#include "slpdas/verify/safety_period.hpp"
#include "slpdas/verify/slp_aware.hpp"
#include "slpdas/verify/verify_schedule.hpp"

#include "slpdas/metrics/stats.hpp"
#include "slpdas/metrics/table.hpp"

#include "slpdas/core/compare.hpp"
#include "slpdas/core/experiment.hpp"
#include "slpdas/core/fleet.hpp"
#include "slpdas/core/parameters.hpp"
