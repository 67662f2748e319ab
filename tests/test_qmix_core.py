"""Mixing network, TD targets, training step, action selection, and checkpoints."""
import base64
import resource

import numpy as np
import pytest

from gridmix import qmix_core as qc
from gridmix import dense_net
from gridmix.dense_net import (NetParams, NonFiniteGradient, ShapeMismatch, Topology,
                               backward, forward, init_params)
from gridmix.grid_world import Action
from gridmix.qmix_core import (MODES, MixerBundle, bundle_from_payload, bundle_to_payload,
                               load_bundle, mix_forward_batch, save_bundle, select_actions,
                               sync_targets, td_targets, train_step)
from gridmix.replay_buffer import Batch

from oracles import finite_diff_check


def make_bundle(n_agents=2, obs_dim=10, state_dim=8, mode="qmix", embed_dim=8, seed=1,
                **kwargs):
    return MixerBundle(n_agents=n_agents, obs_dim=obs_dim, state_dim=state_dim,
                       mode=mode, embed_dim=embed_dim, seed=seed, **kwargs)


def random_batch(bundle, b=8, seed=0, all_active=True):
    rng = np.random.default_rng(seed)
    n, od, sd = bundle.n_agents, bundle.obs_dim, bundle.state_dim
    active = np.ones((b, n), dtype=bool) if all_active else rng.random((b, n)) < 0.8
    active[:, 0] = True  # at least one live agent per sample
    return Batch(
        obs=rng.normal(size=(b, n, od)),
        actions=rng.integers(0, 5, size=(b, n)),
        rewards=rng.normal(size=(b, n)),
        next_obs=rng.normal(size=(b, n, od)),
        state=rng.normal(size=(b, sd)),
        next_state=rng.normal(size=(b, sd)),
        done=rng.random((b, n)) < 0.2,
        active=active,
        terminal=rng.random(b) < 0.3,
    )


class TestAgentQValues:
    def test_zero_net_gives_zero_qs(self):
        bundle = make_bundle()
        bundle.agent_net.flat[:] = 0.0
        q, _ = forward(bundle.agent_net, np.ones((1, 10)))
        assert np.array_equal(q, np.zeros((1, 5)))

    def test_output_length_five(self):
        for obs_dim in (484, 196, 36):  # radii 5, 3, 1
            bundle = make_bundle(obs_dim=obs_dim)
            q, _ = forward(bundle.agent_net, np.zeros((1, obs_dim)))
            assert q.shape == (1, 5)

    def test_needs_flat_observation(self):
        bundle = make_bundle()
        with pytest.raises(ShapeMismatch):
            forward(bundle.agent_net, np.zeros((1, 11)))  # not obs_dim wide


class TestMix:
    def test_vdn_is_plain_sum(self):
        # vdn mixes inside the loss path: Q_tot is the sum of the chosen
        # agent Q-values, inactive agents contributing 0
        bundle = make_bundle(mode="vdn")
        batch = random_batch(bundle, b=7, seed=1, all_active=False)
        q, _ = forward(bundle.agent_net, batch.obs.reshape(-1, bundle.obs_dim))
        chosen = q[np.arange(14), batch.actions.reshape(-1)].reshape(7, 2) * batch.active
        _, _, td_errors, q_tot_mean = qc.loss_and_grad(bundle, batch)
        assert q_tot_mean == chosen.sum(axis=1).mean()
        np.testing.assert_array_equal(td_errors,
                                      chosen.sum(axis=1) - td_targets(bundle, batch))

    def test_qmix_zero_hypernets_give_zero(self):
        bundle = make_bundle()
        bundle.theta[bundle.agent_net.flat.size:] = 0.0
        for qs in (np.zeros(2), np.array([5.0, -3.0]), np.array([1e3, 1e3])):
            q_tot, _ = mix_forward_batch(bundle.mixer, qs[None, :], np.ones((1, 8)))
            assert q_tot[0] == 0.0

    def test_monotone_in_every_agent_q(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            bundle = make_bundle(n_agents=3, seed=seed)
            qs = rng.normal(size=(40, 3))
            state = rng.normal(size=(40, 8))
            base, _ = mix_forward_batch(bundle.mixer, qs, state)
            for i in range(3):
                for delta in (1e-3, 0.1, 1.0):
                    bumped = qs.copy()
                    bumped[:, i] += delta
                    up, _ = mix_forward_batch(bundle.mixer, bumped, state)
                    assert (up - base).min() >= -1e-12

    def test_single_sample_matches_batch(self):
        bundle = make_bundle()
        rng = np.random.default_rng(3)
        qs = rng.normal(size=(4, 2))
        state = rng.normal(size=(4, 8))
        batched, _ = mix_forward_batch(bundle.mixer, qs, state)
        for k in range(4):
            single, _ = mix_forward_batch(bundle.mixer, qs[k:k + 1], state[k:k + 1])
            assert single[0] == pytest.approx(batched[k], rel=1e-12)

    def test_shape_errors(self):
        bundle = make_bundle()
        with pytest.raises(ShapeMismatch):
            mix_forward_batch(bundle.mixer, np.zeros((4, 2)), np.zeros((3, 8)))
        with pytest.raises(ShapeMismatch):
            mix_forward_batch(bundle.mixer, np.zeros((4, 2)), np.zeros((4, 9)))


class TestDegenerateMixer:
    def test_forced_weights_reduce_to_vdn_sum(self):
        # hypernets forced to produce W1 = ones, W2 = ones, b1 = b2 = 0 with a
        # 1-wide mixing layer; positive qs keep ELU on its identity branch,
        # so Q_tot == sum(qs)
        bundle = make_bundle(n_agents=2, embed_dim=1)
        bundle.theta[bundle.agent_net.flat.size:] = 0.0
        mixer = bundle.mixer
        mixer.b[:2] = 1.0  # W1 rows: abs(0 + 1) = 1 for both weights
        mixer.b[3] = 1.0   # W2 row
        rng = np.random.default_rng(0)
        qs = rng.uniform(0.1, 5.0, size=(16, 2))
        state = rng.normal(size=(16, 8))
        q_tot, _ = mix_forward_batch(mixer, qs, state)
        np.testing.assert_array_equal(q_tot, qs.sum(axis=1))


class TestTdTargets:
    def test_terminal_samples_get_no_bootstrap(self):
        bundle = make_bundle()
        batch = random_batch(bundle, b=6, seed=2)
        batch.terminal[:] = True
        y = td_targets(bundle, batch)
        r_team = (batch.rewards * batch.active).sum(axis=1)
        np.testing.assert_array_equal(y, r_team)

    def test_zero_gamma_removes_bootstrap(self):
        bundle = make_bundle(gamma=1e-300)  # gamma must be positive; this rounds away
        bundle.gamma = 0.0
        batch = random_batch(bundle, b=6, seed=3)
        batch.terminal[:] = False
        y = td_targets(bundle, batch)
        r_team = (batch.rewards * batch.active).sum(axis=1)
        np.testing.assert_array_equal(y, r_team)

    def test_vdn_single_agent_is_dqn_target(self):
        bundle = make_bundle(n_agents=1, mode="vdn", gamma=0.9)
        batch = random_batch(bundle, b=10, seed=4)
        batch.done[:] = False
        batch.active[:] = True
        y = td_targets(bundle, batch)
        next_q, _ = forward(bundle.target_agent_net, batch.next_obs[:, 0, :])
        expected = batch.rewards[:, 0] + 0.9 * (~batch.terminal) * next_q.max(axis=1)
        np.testing.assert_allclose(y, expected, rtol=1e-15)

    def test_finished_agents_contribute_zero_next_value(self):
        bundle = make_bundle(mode="vdn")
        batch = random_batch(bundle, b=4, seed=5)
        batch.terminal[:] = False
        batch.active[:] = True
        batch.done[:] = False
        batch.done[:, 1] = True  # agent 1 finished this step
        y = td_targets(bundle, batch)
        next_q, _ = forward(bundle.target_agent_net,
                            batch.next_obs.reshape(-1, bundle.obs_dim))
        greedy = next_q.max(axis=1).reshape(4, 2)
        expected = (batch.rewards.sum(axis=1)
                    + bundle.gamma * greedy[:, 0])  # only agent 0 bootstraps
        np.testing.assert_allclose(y, expected, rtol=1e-12)

    def test_iql_targets_are_per_agent(self):
        # y = r + gamma * not_terminal * max Q' * (active & ~done), per agent
        bundle = make_bundle(mode="iql", n_agents=3)
        batch = random_batch(bundle, b=12, seed=6, all_active=False)
        y = td_targets(bundle, batch)
        assert y.shape == (12, 3)
        next_q, _ = forward(bundle.target_agent_net,
                            batch.next_obs.reshape(-1, bundle.obs_dim))
        greedy = next_q.max(axis=1).reshape(12, 3)
        bootstrap = batch.active & ~batch.done & ~batch.terminal[:, None]
        expected = np.where(batch.active, batch.rewards, 0.0) \
            + np.where(bootstrap, bundle.gamma * greedy, 0.0)
        np.testing.assert_allclose(y, expected, rtol=1e-15)
        assert np.all(y[~batch.active] == 0.0)


class TestTrainStep:
    def test_zero_error_batch_leaves_params_unchanged(self):
        bundle = make_bundle(mode="vdn", n_agents=1)
        batch = random_batch(bundle, b=5, seed=6)
        batch.terminal[:] = True
        batch.active[:] = True
        # targets equal current Q_tot exactly: set the (terminal) reward to it
        q, _ = forward(bundle.agent_net, batch.obs[:, 0, :])
        batch.rewards[:, 0] = q[np.arange(5), batch.actions[:, 0]]
        theta_before = bundle.theta.copy()
        report = train_step(bundle, batch)
        assert report.loss == 0.0
        assert report.grad_norm == 0.0
        np.testing.assert_array_equal(bundle.theta, theta_before)

    @pytest.mark.parametrize("mode", ["qmix", "vdn", "iql"])
    def test_gradient_matches_finite_differences(self, mode):
        bundle = make_bundle(mode=mode, seed=11)
        batch = random_batch(bundle, b=6, seed=7, all_active=False)

        def loss_fn(flat):
            bundle.theta[:] = flat
            loss, grad, _, _ = qc.loss_and_grad(bundle, batch)
            return loss, grad

        err = finite_diff_check(bundle.theta.copy(), loss_fn, n_coords=300,
                                rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_deterministic(self):
        reports = []
        thetas = []
        for _ in range(2):
            bundle = make_bundle(seed=13)
            batch = random_batch(bundle, b=8, seed=8)
            report = train_step(bundle, batch)
            reports.append(report)
            thetas.append(bundle.theta.copy())
        assert reports[0].loss == reports[1].loss
        assert reports[0].grad_norm == reports[1].grad_norm
        np.testing.assert_array_equal(reports[0].td_errors, reports[1].td_errors)
        np.testing.assert_array_equal(thetas[0], thetas[1])

    @pytest.mark.parametrize("mode", ["qmix", "vdn"])
    def test_loss_is_mean_squared_td_error(self, mode):
        bundle = make_bundle(mode=mode, seed=14)
        batch = random_batch(bundle, b=9, seed=9)
        report = train_step(bundle, batch)
        assert report.loss == pytest.approx(float(np.square(report.td_errors).mean()),
                                            rel=1e-15)

    def test_iql_loss_masks_inactive_slots(self):
        bundle = make_bundle(mode="iql", seed=15)
        batch = random_batch(bundle, b=8, seed=10, all_active=False)
        report = train_step(bundle, batch)
        masked = report.td_errors[~batch.active]
        assert np.array_equal(masked, np.zeros_like(masked))
        n_active = int(batch.active.sum())
        assert report.loss == pytest.approx(
            float(np.square(report.td_errors).sum() / n_active), rel=1e-15)

    def test_targets_never_touched(self):
        bundle = make_bundle(seed=16)
        target_before = bundle.theta_target.copy()
        for k in range(3):
            train_step(bundle, random_batch(bundle, b=8, seed=20 + k))
        np.testing.assert_array_equal(bundle.theta_target, target_before)
        assert not np.array_equal(bundle.theta, target_before)

    def test_non_finite_reward_aborts(self):
        bundle = make_bundle(mode="vdn")
        batch = random_batch(bundle, b=4, seed=12)
        batch.rewards[0, 0] = np.inf
        batch.terminal[:] = True
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteGradient):
            train_step(bundle, batch)

    def test_inactive_slots_receive_no_gradient(self):
        # duplicate batches, in one of them an inactive agent's stored action
        # is changed: gradients must be identical
        bundle_a = make_bundle(seed=17)
        bundle_b = make_bundle(seed=17)
        batch_a = random_batch(bundle_a, b=6, seed=13, all_active=False)
        inactive = np.argwhere(~batch_a.active)
        assert len(inactive) > 0
        batch_b = Batch(**{k: getattr(batch_a, k).copy() for k in
                           ("obs", "actions", "rewards", "next_obs", "state",
                            "next_state", "done", "active", "terminal")})
        s, a = inactive[0]
        batch_b.actions[s, a] = (batch_a.actions[s, a] + 2) % 5
        batch_b.obs[s, a] += 100.0
        train_step(bundle_a, batch_a)
        train_step(bundle_b, batch_b)
        np.testing.assert_array_equal(bundle_a.theta, bundle_b.theta)


def fresh_copy(bundle):
    """A bundle with ``bundle``'s parameters, targets and optimizer state but
    no learner workspace."""
    copy = make_bundle(n_agents=bundle.n_agents, obs_dim=bundle.obs_dim,
                       state_dim=bundle.state_dim, mode=bundle.mode,
                       embed_dim=bundle.embed_dim)
    copy.theta[:] = bundle.theta
    copy.theta_target[:] = bundle.theta_target
    copy.adam.m[:], copy.adam.v[:] = bundle.adam.m, bundle.adam.v
    copy.adam.step = bundle.adam.step
    return copy


def workspace_arrays(work):
    """Every array a learner workspace owns."""
    tapes = [work.agent, work.target_agent, work.mixer, work.target_mixer]
    found = [work.d_q_all, work.rows]
    for tape in filter(None, tapes):
        for value in vars(tape).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, np.ndarray):
                    found.append(item)
    return found


class TestWorkspace:
    """The arrays one update writes into outlive it without changing its results."""

    @pytest.mark.parametrize("mode", MODES)
    def test_reused_workspace_matches_fresh_bundle(self, mode):
        bundle = make_bundle(mode=mode, seed=21)
        sizes = (8, 8, 16, 16, 8, 8)
        works = []
        for k, b in enumerate(sizes):
            batch = random_batch(bundle, b=b, seed=40 + k, all_active=False)
            reference = fresh_copy(bundle)
            expected = train_step(reference, batch)
            report = train_step(bundle, batch)
            works.append(bundle.workspace(b))
            assert report.loss == expected.loss
            assert report.grad_norm == expected.grad_norm
            assert report.q_tot_mean == expected.q_tot_mean
            np.testing.assert_array_equal(report.td_errors, expected.td_errors)
            np.testing.assert_array_equal(bundle.theta, reference.theta)
        # one slot: kept while the size holds, rebuilt when it changes
        assert works[0] is works[1] and works[2] is works[3] and works[4] is works[5]
        assert works[1] is not works[2] and works[3] is not works[4]

    @pytest.mark.parametrize("mode", MODES)
    def test_tapeless_passes_share_nothing_with_the_workspace(self, mode):
        bundle = make_bundle(mode=mode, seed=22)
        batch = random_batch(bundle, b=8, seed=50)
        train_step(bundle, batch)
        owned = workspace_arrays(bundle.workspace(8)) + [bundle.grad]
        x = batch.obs.reshape(16, bundle.obs_dim)
        out, tape = forward(bundle.agent_net, x)
        grad = backward(tape, np.ones_like(out))
        mine = [out, grad] + tape.preacts + tape.acts[1:] + tape.dz + tape.dx
        for a in filter(lambda a: a is not None, mine):
            assert not any(np.shares_memory(a, b) for b in owned)

    def test_bundle_that_never_trains_holds_no_workspace(self):
        bundle = make_bundle(seed=23)
        forward(bundle.agent_net, np.zeros((4, bundle.obs_dim)))
        td_targets(bundle, random_batch(bundle, b=4, seed=51))
        assert bundle._work is None


    @pytest.mark.parametrize("mode", MODES)
    def test_steady_state_update_takes_few_page_faults(self, mode):
        # criterion 13's learner shape: 8x8 grid, 2 agents, view radius 5, batch 64
        bundle = make_bundle(n_agents=2, obs_dim=484, state_dim=192, mode=mode,
                             embed_dim=qc.DEFAULT_EMBED_DIM, seed=24)
        batches = [random_batch(bundle, b=64, seed=60 + k, all_active=False)
                   for k in range(4)]
        for k in range(10):
            train_step(bundle, batches[k % 4])
        faults = 0
        for k in range(50):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train_step(bundle, batches[k % 4])
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 50 <= 5.0


class TestSyncTargets:
    def test_constructor_syncs(self):
        bundle = make_bundle(seed=18)
        x = np.random.default_rng(0).normal(size=(1, 10))
        online, _ = forward(bundle.agent_net, x)
        target, _ = forward(bundle.target_agent_net, x)
        np.testing.assert_array_equal(online, target)

    def test_sync_after_updates_restores_equality(self):
        bundle = make_bundle(seed=19)
        train_step(bundle, random_batch(bundle, b=8, seed=14))
        assert not np.array_equal(bundle.theta, bundle.theta_target)
        sync_targets(bundle)
        np.testing.assert_array_equal(bundle.theta, bundle.theta_target)
        before = bundle.theta.copy()
        sync_targets(bundle)  # idempotent, online untouched
        np.testing.assert_array_equal(bundle.theta, before)
        np.testing.assert_array_equal(bundle.theta_target, before)


class TestSelectActions:
    def test_greedy_breaks_ties_to_lowest_code(self):
        bundle = make_bundle()
        bundle.agent_net.flat[:] = 0.0
        agent = bundle.agent_net
        w_out, b_out = agent.layers[-1]
        b_out[:] = [0.1, 0.9, 0.9, 0.0, 0.0]
        actions = select_actions(bundle, np.zeros((1, 2, 10)), 0.0, None,
                                 np.ones((1, 2), dtype=bool))
        assert actions.tolist() == [[1, 1]]

    def test_eps_one_is_roughly_uniform(self):
        bundle = make_bundle()
        rng = np.random.default_rng(0)
        draws = 20_000
        counts = np.zeros(5)
        obs = np.zeros((1, 1, 10))
        active = np.ones((1, 1), dtype=bool)
        for _ in range(draws):
            counts[select_actions(bundle, obs, 1.0, [rng], active)[0, 0]] += 1
        p = 0.2
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.abs(counts - draws * p).max() < 5 * sigma

    def test_inactive_agents_stay(self):
        bundle = make_bundle()
        actions = select_actions(bundle, np.zeros((1, 2, 10)), 0.0, None,
                                 np.array([[False, True]]))
        assert actions[0, 0] == int(Action.STAY)

    def test_rows_draw_from_their_own_streams(self):
        # one forward over every row, then each row's epsilon_greedy with
        # its own stream, as train() acts for its slots
        bundle = make_bundle()
        obs = np.random.default_rng(3).normal(size=(3, 2, 10))
        active = np.array([[True, True], [False, True], [True, False]])
        got = select_actions(bundle, obs, 0.5, [np.random.default_rng(s) for s in range(3)],
                             active)
        assert got.shape == (3, 2)
        for e in range(3):
            q, _ = forward(bundle.agent_net, obs[e])
            want = qc.epsilon_greedy(q.argmax(axis=1), 0.5, np.random.default_rng(e),
                                     active[e])
            assert got[e].tolist() == want.tolist()

    def test_eps_needs_rng(self):
        bundle = make_bundle()
        with pytest.raises(ValueError):
            select_actions(bundle, np.zeros((1, 1, 10)), 0.5, None, np.ones((1, 1), dtype=bool))


class TestArgmaxConsistency:
    @pytest.mark.parametrize("n_agents", [2, 3])
    def test_per_agent_greedy_equals_joint_argmax(self, n_agents):
        rng = np.random.default_rng(100 + n_agents)
        for seed in range(10):
            bundle = make_bundle(n_agents=n_agents, seed=seed)
            obs = rng.normal(size=(n_agents, 10))
            q, _ = forward(bundle.agent_net, obs)
            greedy = q.argmax(axis=1)
            profiles = np.stack(np.meshgrid(
                *[np.arange(5)] * n_agents, indexing="ij"), -1).reshape(-1, n_agents)
            qs = q[np.arange(n_agents)[None, :], profiles]
            state = rng.normal(size=8)
            states = np.repeat(state[None, :], len(profiles), axis=0)
            q_tot, _ = mix_forward_batch(bundle.mixer, qs, states)
            joint = profiles[int(q_tot.argmax())]
            assert np.array_equal(joint, greedy)


def nested_net_payload(net):
    """One net as checkpoint formats 1 and 2 nested it."""
    return {"format_version": 1, "sizes": list(net.topology.sizes),
            "activations": list(net.topology.activations), "params": net.flat.tolist()}


class TestBundle:
    def test_mode_and_gamma_validated(self):
        with pytest.raises(ValueError):
            make_bundle(mode="ppo")
        with pytest.raises(ValueError):
            make_bundle(gamma=1.0)

    def test_vdn_and_iql_have_no_hypernets(self):
        for mode in ("vdn", "iql"):
            bundle = make_bundle(mode=mode)
            assert bundle.mixer is None and bundle.target_mixer is None
            assert bundle.theta.size == bundle.agent_net.flat.size

    def test_checkpoint_round_trip_bit_exact(self):
        bundle = make_bundle(seed=23)
        train_step(bundle, random_batch(bundle, b=8, seed=15))
        clone = bundle_from_payload(bundle_to_payload(bundle))
        np.testing.assert_array_equal(clone.theta, bundle.theta)
        assert clone.mode == bundle.mode
        assert clone.gamma == bundle.gamma
        assert clone.embed_dim == bundle.embed_dim
        assert clone.train_steps == bundle.train_steps
        x = np.random.default_rng(1).normal(size=(1, 10))
        a, _ = forward(bundle.agent_net, x)
        b, _ = forward(clone.agent_net, x)
        np.testing.assert_array_equal(a, b)

    def test_checkpoint_version_checked(self):
        payload = bundle_to_payload(make_bundle())
        payload["format_version"] = 42
        with pytest.raises(ValueError):
            bundle_from_payload(payload)

    @pytest.mark.parametrize("mode", ["qmix", "vdn"])
    def test_checkpoint_keeps_lr_and_grad_clip(self, mode):
        bundle = make_bundle(mode=mode, lr=1e-3, grad_clip=5.0)
        clone = bundle_from_payload(bundle_to_payload(bundle))
        assert clone.adam.lr == 1e-3
        assert clone.grad_clip == 5.0
        np.testing.assert_array_equal(clone.theta, bundle.theta)

    @pytest.mark.parametrize("mode", MODES)
    def test_save_load_on_disk_bit_exact(self, tmp_path, mode):
        bundle = make_bundle(mode=mode, seed=29)
        train_step(bundle, random_batch(bundle, b=8, seed=16))
        path = str(tmp_path / "checkpoint.json")
        save_bundle(bundle, path)
        clone = load_bundle(path)
        assert clone.theta.tobytes() == bundle.theta.tobytes()
        assert clone.theta_target.tobytes() == bundle.theta.tobytes()
        assert clone.train_steps == 1

    def test_version_1_checkpoint_rejected(self):
        # version 1 stored each hypernet as its own net next to the agent net
        bundle = make_bundle()
        payload = bundle_to_payload(bundle)
        del payload["theta"], payload["lr"], payload["grad_clip"]
        payload["format_version"] = 1
        nets = {"agent": bundle.agent_net, **reference_hypernets(bundle)}
        payload["nets"] = {name: nested_net_payload(net) for name, net in nets.items()}
        with pytest.raises(ValueError, match="version 1"):
            bundle_from_payload(payload)

    def test_version_2_checkpoint_rejected(self):
        # version 2 stored the agent net as a nested per-net payload and the
        # mixer block as a float list
        bundle = make_bundle()
        payload = bundle_to_payload(bundle)
        del payload["theta"]
        payload["format_version"] = 2
        payload["nets"] = {"agent": nested_net_payload(bundle.agent_net)}
        payload["mixer"] = bundle.theta[bundle.agent_net.flat.size:].tolist()
        with pytest.raises(ValueError, match="version 2"):
            bundle_from_payload(payload)

    def test_wrong_mixer_length_rejected(self):
        # a theta laid out for embed width 8 under a header that says 4
        payload = bundle_to_payload(make_bundle())
        payload["embed_dim"] = 4
        with pytest.raises(ShapeMismatch):
            bundle_from_payload(payload)

    def test_theta_one_float_short_rejected(self):
        bundle = make_bundle()
        payload = bundle_to_payload(bundle)
        payload["theta"] = base64.b64encode(bundle.theta[:-1].astype("<f8").tobytes()).decode()
        with pytest.raises(ShapeMismatch):
            bundle_from_payload(payload)

    def test_theta_not_base64_rejected(self):
        payload = bundle_to_payload(make_bundle())
        payload["theta"] = "*" + payload["theta"][1:]
        with pytest.raises(ValueError):
            bundle_from_payload(payload)


def hyper_topologies(bundle):
    """The four separate hypernetworks the fused mixer layer stands for."""
    n, e, s = bundle.n_agents, bundle.embed_dim, bundle.state_dim
    return {
        "hw1": Topology((s, n * e), ("abs",)),
        "hb1": Topology((s, e), ("identity",)),
        "hw2": Topology((s, e), ("abs",)),
        "hb2": Topology((s, e, 1), ("relu", "identity")),
    }


def reference_hypernets(bundle):
    """Copies of the mixer block's values as four dense_net networks."""
    m = bundle.mixer
    nets, row = {}, 0
    for name, topo in hyper_topologies(bundle).items():
        rows = topo.sizes[1]
        parts = [m.W[row:row + rows].ravel(), m.b[row:row + rows]]
        if name == "hb2":
            parts += [m.w5.ravel(), m.b5]
        nets[name] = NetParams(topo, np.concatenate(parts))
        row += rows
    return nets


def fused_layout(bundle, flats):
    """Per-hypernet flat vectors (keyed like hyper_topologies) in mixer-block order."""
    topos = hyper_topologies(bundle)
    ws, bs = [], []
    for name, topo in topos.items():
        n_w = topo.sizes[0] * topo.sizes[1]
        ws.append(flats[name][:n_w])
        bs.append(flats[name][n_w:n_w + topo.sizes[1]])
    n_first = topos["hb2"].sizes[0] * topos["hb2"].sizes[1] + topos["hb2"].sizes[1]
    return np.concatenate(ws + bs + [flats["hb2"][n_first:]])


class TestFusedMixer:
    """The fused mixer block against four separate dense_net hypernetworks."""

    @pytest.mark.parametrize("n_agents,embed_dim,seed", [(2, 8, 1), (3, 4, 2), (4, 16, 3)])
    def test_matches_separate_hypernets(self, n_agents, embed_dim, seed):
        bundle = make_bundle(n_agents=n_agents, embed_dim=embed_dim, seed=seed)
        rng = np.random.default_rng(seed)
        bundle.mixer.b[:] = rng.normal(size=bundle.mixer.b.shape)
        bundle.mixer.b5[:] = rng.normal()
        qs = rng.normal(size=(9, n_agents))
        state = rng.normal(size=(9, bundle.state_dim))
        g = rng.normal(size=9)

        nets = reference_hypernets(bundle)
        outs, tapes = {}, {}
        for name, net in nets.items():
            outs[name], tapes[name] = forward(net, state)
        w1 = outs["hw1"].reshape(9, n_agents, embed_dim)
        elu, elu_vjp = dense_net.ACTIVATIONS["elu"]
        hidden_pre = np.einsum("bn,bne->be", qs, w1) + outs["hb1"]
        hidden = elu(hidden_pre)
        ref_q_tot = (hidden * outs["hw2"]).sum(axis=1) + outs["hb2"][:, 0]
        d_hidden_pre = elu_vjp(hidden_pre, g[:, None] * outs["hw2"])
        ref_d_qs = np.einsum("bne,be->bn", w1, d_hidden_pre)
        grad_outs = {"hw1": (qs[:, :, None] * d_hidden_pre[:, None, :]).reshape(9, -1),
                     "hb1": d_hidden_pre, "hw2": g[:, None] * hidden, "hb2": g[:, None]}
        ref_grad = fused_layout(bundle, {
            name: backward(tapes[name], grad_outs[name])
            for name in nets})

        q_tot, tape = mix_forward_batch(bundle.mixer, qs, state)
        grad = np.full(bundle.theta.size, np.nan)
        d_qs = qc.mix_backward_batch(tape, g, bundle.mixer_views(grad))
        np.testing.assert_allclose(q_tot, ref_q_tot, rtol=1e-12, atol=0)
        np.testing.assert_allclose(d_qs, ref_d_qs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad[bundle.agent_net.flat.size:], ref_grad,
                                   rtol=1e-12, atol=0)

    def test_init_matches_separate_hypernet_draws(self):
        bundle = make_bundle(n_agents=3, obs_dim=12, state_dim=9, embed_dim=4, seed=5)
        rng = np.random.default_rng(5)
        agent = init_params(qc.agent_topology(12), rng)
        hyper = {name: init_params(topo, rng).flat
                 for name, topo in hyper_topologies(bundle).items()}
        np.testing.assert_array_equal(bundle.theta,
                                      np.concatenate([agent.flat, fused_layout(bundle, hyper)]))
