/**
 * @file
 * Reliability-layer tests for the serving stack: deadlines,
 * cancellation, graceful drain, deterministic fault injection, and
 * the resilient socket client against the socket server.
 *
 *  - deadlines: a request whose deadline passes while queued completes
 *    with REASON_ERR_DEADLINE_EXCEEDED; one a dispatcher picked up
 *    always completes normally, bit-identical to deadline-less runs;
 *  - cancellation: queued-only, never a torn result, exact stats;
 *  - drain: queued work finishes within the deadline (clean) or
 *    expires (dirty), admission closes with REASON_ERR_SHUTTING_DOWN,
 *    and drain is idempotent;
 *  - fault plans: spec parsing, canonical describe(), and the
 *    same-seed-same-schedule determinism contract;
 *  - sockets: client/server round trips stay bit-exact, injected
 *    faults are survived via reconnect + idempotent retry, version
 *    mismatches are answered explicitly, and a mute peer cannot hang
 *    the client — this file runs in the TSan/ASan CI matrix.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "random_circuit.h"
#include "sys/engine.h"
#include "sys/fault.h"
#include "sys/net.h"
#include "sys/wire.h"
#include "util/rng.h"

#if REASON_HAS_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sys/client.h"
#include "sys/server.h"
#endif

using namespace reason;
using namespace reason::sys;

namespace {

bool
bitEqual(double a, double b)
{
    uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof ba);
    std::memcpy(&bb, &b, sizeof bb);
    return ba == bb;
}

/** One-at-a-time engine outputs: the coalescing-free reference. */
std::vector<double>
serveOneAtATime(const pc::Circuit &circuit,
                const std::vector<pc::Assignment> &rows)
{
    ServeOptions options;
    options.maxBatch = 1;
    ReasonEngine engine(options);
    Session session = engine.createSession(circuit);
    std::vector<double> out;
    for (const pc::Assignment &x : rows)
        out.push_back(session.wait(session.submit(x))->outputs[0]);
    return out;
}

constexpr uint64_t kSecondNs = 1'000'000'000ull;

} // namespace

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(Deadlines, GenerousDeadlineStaysBitIdentical)
{
    Rng rng(1401);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 17);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(
            session.submit(rows[i], 0.0, 30 * kSecondNs));
        ASSERT_EQ(r->error, REASON_OK) << "request " << i;
        EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
            << "request " << i;
    }
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, 0u);
    EXPECT_EQ(stats.executed, rows.size());
}

TEST(Deadlines, QueuedExpiryCompletesWithTypedError)
{
    Rng rng(1402);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 9);

    ReasonEngine engine;
    engine.pause();
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x, 0.0, 1'000'000ull));
    // The pause guarantees every deadline passes while still queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.resume();
    for (RequestHandle &h : handles)
        EXPECT_EQ(session.wait(h)->error,
                  REASON_ERR_DEADLINE_EXCEEDED);

    // Expired requests never execute, so the latency means stay
    // unbiased, and the accounting is exact.
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, rows.size());
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.completed, rows.size());
    EXPECT_EQ(stats.completed,
              stats.executed + stats.shedRequests + stats.expired +
                  stats.cancelled);
}

TEST(Deadlines, MixedExpirySparesTheDeadlineless)
{
    Rng rng(1403);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 20);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ReasonEngine engine;
    engine.pause();
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (size_t i = 0; i < rows.size(); ++i)
        handles.push_back(
            i % 2 == 0 ? session.submit(rows[i])
                       : session.submit(rows[i], 0.0, 1'000'000ull));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.resume();

    size_t expired = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(handles[i]);
        if (i % 2 == 0) {
            // Survivors are bit-identical to a deadline-less run:
            // expiry of neighbors must not change their batches' math.
            ASSERT_EQ(r->error, REASON_OK) << "request " << i;
            EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
                << "request " << i;
        } else {
            EXPECT_EQ(r->error, REASON_ERR_DEADLINE_EXCEEDED);
            ++expired;
        }
    }
    EXPECT_EQ(engine.stats().expired, expired);
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(Cancellation, QueuedRequestCancelsWithTypedError)
{
    Rng rng(1404);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 4);

    ReasonEngine engine;
    engine.pause();
    Session session = engine.createSession(circuit);
    RequestHandle keep = session.submit(rows[0]);
    RequestHandle drop = session.submit(rows[1]);
    EXPECT_TRUE(drop.cancel());
    // Cancellation is immediate — the request is already complete
    // even while the engine is still paused — and idempotent-ly
    // unrepeatable: the second cancel finds it finished.
    EXPECT_TRUE(session.poll(drop));
    EXPECT_FALSE(drop.cancel());
    engine.resume();
    EXPECT_EQ(session.wait(drop)->error, REASON_ERR_CANCELLED);
    EXPECT_EQ(session.wait(keep)->error, REASON_OK);

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(Cancellation, CompletedRequestCannotBeCancelled)
{
    Rng rng(1405);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 1);

    ReasonEngine engine;
    Session session = engine.createSession(circuit);
    RequestHandle h = session.submit(rows[0]);
    EXPECT_EQ(session.wait(h)->error, REASON_OK);
    // A finished request keeps its result; cancel() must refuse.
    EXPECT_FALSE(h.cancel());
    EXPECT_EQ(h.error(), REASON_OK);
    EXPECT_EQ(engine.stats().cancelled, 0u);
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(Drain, FinishesQueuedWorkThenClosesAdmission)
{
    Rng rng(1406);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 12);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ReasonEngine engine;
    engine.pause();
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x));

    // Drain releases the pause, finishes the backlog, and reports a
    // clean drain because nothing expired.
    EXPECT_TRUE(engine.drain(30 * kSecondNs));
    for (size_t i = 0; i < rows.size(); ++i) {
        std::shared_ptr<const Request> r = session.wait(handles[i]);
        ASSERT_EQ(r->error, REASON_OK) << "request " << i;
        EXPECT_TRUE(bitEqual(r->outputs[0], reference[i]))
            << "request " << i;
    }
    // Admission is closed: late submissions complete immediately with
    // the shutdown error instead of queueing forever.
    RequestHandle late = session.submit(rows[0]);
    EXPECT_EQ(session.wait(late)->error, REASON_ERR_SHUTTING_DOWN);
    // Drain is one-way and idempotent: an already-drained engine
    // drains cleanly again.
    EXPECT_TRUE(engine.drain(0));
}

TEST(Drain, ZeroDeadlineExpiresTheBacklog)
{
    Rng rng(1407);
    pc::Circuit circuit = pc::randomCircuit(rng, 20, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 32);

    ServeOptions options;
    options.maxBatch = 1;
    ReasonEngine engine(options);
    engine.pause();
    Session session = engine.createSession(circuit);
    std::vector<RequestHandle> handles;
    for (const pc::Assignment &x : rows)
        handles.push_back(session.submit(x));

    // A zero deadline expires everything still queued when the drain
    // begins; a dispatcher may legitimately pick off a prefix first,
    // so assert the dichotomy rather than an exact split.
    EXPECT_FALSE(engine.drain(0));
    size_t expired = 0;
    for (RequestHandle &h : handles) {
        const int error = session.wait(h)->error;
        EXPECT_TRUE(error == REASON_OK ||
                    error == REASON_ERR_DEADLINE_EXCEEDED)
            << "unexpected error " << error;
        expired += error == REASON_ERR_DEADLINE_EXCEEDED;
    }
    EXPECT_GT(expired, 0u);
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.expired, expired);
    EXPECT_EQ(stats.completed, rows.size());
    EXPECT_EQ(stats.completed,
              stats.executed + stats.shedRequests + stats.expired +
                  stats.cancelled);
}

// ---------------------------------------------------------------------------
// Fault plans: parsing and determinism.
// ---------------------------------------------------------------------------

TEST(FaultPlanSpec, ParsesRoundTripsAndRejects)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=42,reset=0.01,torn=0.02,short=0.1,partial=0.1,"
        "delay=0.05,delay_us=500,stall=0.02,stall_us=2000,"
        "reset_nth=100,stall_nth=50",
        &plan, &error))
        << error;
    EXPECT_TRUE(plan.enabled());
    // describe() is canonical: parsing it back yields the same plan.
    FaultPlan reparsed;
    ASSERT_TRUE(FaultPlan::parse(plan.describe(), &reparsed, &error))
        << error;
    EXPECT_EQ(plan.describe(), reparsed.describe());

    // An empty spec is a valid no-fault plan.
    FaultPlan none;
    ASSERT_TRUE(FaultPlan::parse("", &none, &error)) << error;
    EXPECT_FALSE(none.enabled());

    // Unknown keys, malformed values, and out-of-range probabilities
    // are rejected with a diagnostic, never half-applied.
    for (const char *bad :
         {"bogus=1", "reset=", "reset=abc", "reset=1.5",
          "torn=-0.25", "seed=", "reset_nth=xyz"}) {
        FaultPlan p;
        error.clear();
        EXPECT_FALSE(FaultPlan::parse(bad, &p, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(FaultPlanSpec, SameSpecSameSchedule)
{
    // The whole point of seeded injection: two plans with the same
    // spec make identical per-event decisions, independent of timing.
    const std::string spec =
        "seed=7,reset=0.2,torn=0.2,short=0.3,partial=0.3";
    FaultPlan a;
    FaultPlan b;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(spec, &a, &error)) << error;
    ASSERT_TRUE(FaultPlan::parse(spec, &b, &error)) << error;
    bool anything_fired = false;
    for (int i = 0; i < 400; ++i) {
        const FaultAction ra = i % 2 == 0 ? a.onRecv(512)
                                          : a.onSend(512);
        const FaultAction rb = i % 2 == 0 ? b.onRecv(512)
                                          : b.onSend(512);
        EXPECT_EQ(ra.reset, rb.reset) << "event " << i;
        EXPECT_EQ(ra.maxBytes, rb.maxBytes) << "event " << i;
        EXPECT_EQ(ra.resetAfter, rb.resetAfter) << "event " << i;
        EXPECT_EQ(ra.delayUs, rb.delayUs) << "event " << i;
        anything_fired |= ra.reset || ra.maxBytes != 0;
    }
    EXPECT_TRUE(anything_fired) << "spec injected nothing in 400 events";
    const FaultStats sa = a.stats();
    const FaultStats sb = b.stats();
    EXPECT_EQ(sa.resets, sb.resets);
    EXPECT_EQ(sa.tornFrames, sb.tornFrames);
    EXPECT_EQ(sa.shortReads, sb.shortReads);
    EXPECT_EQ(sa.partialWrites, sb.partialWrites);
    EXPECT_EQ(sa.total(), sb.total());
    EXPECT_GT(sa.total(), 0u);
}

TEST(FaultPlanSpec, NthTriggersFireDeterministically)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("reset_nth=3", &plan, &error))
        << error;
    size_t resets = 0;
    for (int i = 0; i < 12; ++i)
        resets += plan.onSend(64).reset;
    EXPECT_EQ(resets, 4u); // every 3rd of 12 events
    EXPECT_EQ(plan.stats().resets, 4u);
}

#if REASON_HAS_SOCKETS

// ---------------------------------------------------------------------------
// Socket serving: resilient client vs the socket server.
// ---------------------------------------------------------------------------

namespace {

struct ServerFixture
{
    ServeOptions serveOptions;
    ReasonEngine engine;
    SocketServer server;

    explicit ServerFixture(const pc::Circuit &circuit,
                           const ServerOptions &options = {})
        : serveOptions(makeServeOptions()),
          engine(serveOptions),
          server(engine, circuit.lowered(), options)
    {
        std::string error;
        if (!server.start(&error))
            ADD_FAILURE() << "server start failed: " << error;
    }

    static ServeOptions
    makeServeOptions()
    {
        ServeOptions o;
        o.maxBatch = 8;
        o.serveThreads = 1;
        o.dispatchers = 2;
        return o;
    }
};

} // namespace

TEST(SocketReliability, RoundTripIsBitExactAndDrainsClean)
{
    Rng rng(1408);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 40);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    ServerFixture fx(circuit);
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 21;
    Client client(copt);
    EXPECT_TRUE(client.ping(0x600df00dull));
    std::vector<QueryOutcome> outcomes;
    EXPECT_TRUE(client.runBatch(rows, &outcomes));
    ASSERT_EQ(outcomes.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(outcomes[i].error, REASON_OK) << "query " << i;
        EXPECT_TRUE(bitEqual(outcomes[i].value, reference[i]))
            << "query " << i;
        EXPECT_GT(outcomes[i].latencyNs, 0u) << "query " << i;
    }
    const ClientStats cs = client.stats();
    EXPECT_EQ(cs.connects, 1u);
    EXPECT_EQ(cs.retriesSent, 0u);
    EXPECT_EQ(cs.transportErrors, 0u);
    EXPECT_TRUE(fx.server.stop()) << "drain expired queued work";
    EXPECT_EQ(fx.server.stats().versionRejects, 0u);
}

TEST(SocketReliability, SurvivesInjectedFaultsBitExactly)
{
    Rng rng(1409);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 60);
    std::vector<double> reference = serveOneAtATime(circuit, rows);

    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=13,reset=0.02,torn=0.02,short=0.15,partial=0.15", &plan,
        &error))
        << error;

    {
        ServerFixture fx(circuit);
        installFaultPlan(&plan);
        ClientOptions copt;
        copt.port = fx.server.port();
        copt.clientId = 33;
        copt.maxRetries = 200;
        copt.backoffBaseMs = 1;
        copt.backoffCapMs = 20;
        Client client(copt);
        std::vector<QueryOutcome> outcomes;
        // The contract under faults: every query still terminates
        // with the bit-exact answer — reconnect plus idempotent retry
        // hides every injected failure.
        EXPECT_TRUE(client.runBatch(rows, &outcomes));
        installFaultPlan(nullptr);
        ASSERT_EQ(outcomes.size(), rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
            ASSERT_EQ(outcomes[i].error, REASON_OK) << "query " << i;
            EXPECT_TRUE(bitEqual(outcomes[i].value, reference[i]))
                << "query " << i;
        }
        EXPECT_TRUE(fx.server.stop());
    }
    EXPECT_GT(plan.stats().total(), 0u)
        << "fault plan injected nothing";
}

TEST(SocketReliability, VersionMismatchIsAnsweredExplicitly)
{
    Rng rng(1410);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    ServerFixture fx(circuit);

    // Speak v2 at the server by hand: it must ack with its own
    // version and then close, never hang or execute anything.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    netSetRecvTimeoutMs(fd, 2000);
    std::vector<uint8_t> hello;
    wire::appendHello(hello, 2);
    ASSERT_TRUE(netSendAll(fd, hello.data(), hello.size()));

    wire::FrameDecoder decoder;
    std::vector<uint8_t> buf(4096);
    bool acked = false;
    bool closed = false;
    while (!closed) {
        const long n = netRecv(fd, buf.data(), buf.size());
        if (n <= 0) {
            closed = true;
            break;
        }
        decoder.feed(buf.data(), size_t(n));
        wire::Frame frame;
        while (decoder.next(&frame) ==
               wire::FrameDecoder::Status::Ok) {
            EXPECT_EQ(frame.type, wire::FrameType::HelloAck);
            EXPECT_EQ(frame.helloVersion, wire::kProtocolVersion);
            acked = true;
        }
    }
    ::close(fd);
    EXPECT_TRUE(acked) << "server closed without acking its version";
    EXPECT_TRUE(fx.server.stop());
    EXPECT_EQ(fx.server.stats().versionRejects, 1u);
}

TEST(SocketReliability, MutePeerCannotHangTheClient)
{
    // A listener that never accepts: connects succeed (backlog) but
    // the handshake gets no bytes, so the bounded receive wait and
    // the retry budget must terminate every query with a typed error.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 8), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);

    ClientOptions copt;
    copt.port = ntohs(addr.sin_port);
    copt.maxRetries = 2;
    copt.backoffBaseMs = 1;
    copt.backoffCapMs = 5;
    copt.recvTimeoutMs = 100;
    Client client(copt);
    std::vector<pc::Assignment> rows = {{0u, 1u}, {1u, 0u}};
    std::vector<QueryOutcome> outcomes;
    EXPECT_FALSE(client.runBatch(rows, &outcomes));
    ASSERT_EQ(outcomes.size(), rows.size());
    for (const QueryOutcome &o : outcomes)
        EXPECT_EQ(o.error, kClientErrTransport);
    EXPECT_GT(client.stats().connectFailures, 0u);
    ::close(listener);
}

TEST(SocketReliability, DuplicateSubmitsReplayCachedAnswers)
{
    Rng rng(1411);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 15);

    ServerFixture fx(circuit);
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 55;

    std::vector<QueryOutcome> first;
    std::vector<QueryOutcome> second;
    {
        Client client(copt);
        EXPECT_TRUE(client.runBatch(rows, &first));
    }
    {
        // A second client with the same identity re-submitting the
        // same ids models a reconnect-and-retry after a lost answer:
        // the server must replay its cache, not re-execute.
        Client client(copt);
        EXPECT_TRUE(client.runBatch(rows, &second));
    }
    ASSERT_EQ(first.size(), rows.size());
    ASSERT_EQ(second.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(first[i].error, REASON_OK) << "query " << i;
        ASSERT_EQ(second[i].error, REASON_OK) << "query " << i;
        EXPECT_TRUE(bitEqual(first[i].value, second[i].value))
            << "query " << i;
    }
    EXPECT_EQ(fx.server.stats().duplicatesSuppressed, rows.size());
    EXPECT_TRUE(fx.server.stop());
}

TEST(SocketReliability, ClientDeadlineCapsTheRetryLoop)
{
    Rng rng(1412);
    pc::Circuit circuit = pc::randomCircuit(rng, 16, 2, 4, 6);
    std::vector<pc::Assignment> rows =
        pc::sampleDataset(rng, circuit, 4);

    // Reset every connection attempt's traffic: no query can ever be
    // answered, so the per-query deadline is what terminates them.
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("reset_nth=1", &plan, &error))
        << error;
    ServerFixture fx(circuit);
    installFaultPlan(&plan);
    ClientOptions copt;
    copt.port = fx.server.port();
    copt.clientId = 77;
    copt.maxRetries = 100000; // the deadline, not the budget, ends it
    copt.backoffBaseMs = 1;
    copt.backoffCapMs = 5;
    copt.deadlineNs = 300 * 1'000'000ull; // 300 ms
    copt.recvTimeoutMs = 50;
    Client client(copt);
    std::vector<QueryOutcome> outcomes;
    client.runBatch(rows, &outcomes);
    installFaultPlan(nullptr);
    ASSERT_EQ(outcomes.size(), rows.size());
    for (const QueryOutcome &o : outcomes)
        EXPECT_EQ(o.error, REASON_ERR_DEADLINE_EXCEEDED);
    fx.server.stop();
}

#endif // REASON_HAS_SOCKETS
