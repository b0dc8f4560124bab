"""A hand-run mutation check of the oracle suite: each one-line text mutant
of ``src/restuner`` must make the test named beside it fail.

    python tests/mutants.py             # every mutant against its killer
    python tests/mutants.py NAME ...    # the named mutants only
    python tests/mutants.py --suite     # each against tier-1 (-x, no kernel matrix)

For each mutant it copies the working tree (no ``.git``) to a temporary
directory, replaces one substring that occurs exactly once in one module,
and runs pytest there in one child process. It prints one line per mutant
and exits 1 if any but an equivalent one survived, or if pytest stopped
with an error rather than a failed test. ``EQUIVALENT`` records
the mutants no test is expected to kill, and why; they run only when named,
against tier-1. pytest does not collect this file: its name has no
``test_`` prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (module, text, mutant text, killer test)
MUTANTS = {
    # the survivors of the first probe, each now killed by a named oracle
    "position_even_columns_cos": ("backbone.py", "table[:, 0::2] = np.sin(", "table[:, 0::2] = np.cos(",
                                  "test_backbone.py::test_position_table_matches_the_loop_formula"),
    "position_frequency_2i": ("backbone.py", "(2 * (i // 2)) / dim", "(2 * i) / dim",
                              "test_backbone.py::test_position_table_matches_the_loop_formula"),
    "cosine_over_total_steps": ("training.py", "max(1, total_steps - 1)", "max(1, total_steps)",
                                "test_training.py::test_cosine_schedule_in_closed_form"),
    "train_ignores_smoothing": ("training.py", "dataset.labels[idx], cfg.label_smoothing,",
                                "dataset.labels[idx], 0.0,",
                                "test_cli.py::test_cmd_train_smoothing_writes_the_checkpoint_of_a_hand_loop"),
    "split_cut_truncates": ("data_io.py", "int(round(train_fraction * len(ds)))",
                            "int(train_fraction * len(ds))",
                            "test_data_io.py::test_split_cut_rounds_half_to_even"),
    # the first probe's other mutants
    "adamw_no_v_bias_correction": ("training.py", "v_hat = v / (1 - cfg.beta2**t)", "v_hat = v",
                                   "test_training.py::test_optimizer_updates_in_place_to_the_out_of_place_bytes"),
    "adamw_no_weight_decay": ("training.py", " + cfg.weight_decay * p.data)", ")",
                              "test_training.py::test_optimizer_updates_in_place_to_the_out_of_place_bytes"),
    "sgd_no_weight_decay": ("training.py", "g = p.grad + self.cfg.weight_decay * p.data", "g = p.grad",
                            "test_training.py::test_optimizer_updates_in_place_to_the_out_of_place_bytes"),
    "no_shuffle": ("training.py", "order = np.arange(n) if rng is None else rng.permutation(n)",
                   "order = np.arange(n)", "test_cli.py::test_cmd_train_seed_override_changes_metrics"),
    "eval_loss_weighted_by_batch_size": ("training.py", ".item() * len(idx)", ".item() * batch_size",
                                         "test_cli.py::test_cmd_train_and_eval"),
    "smoothing_over_k_minus_1": ("tensor.py", "smoothing / K)", "smoothing / (K - 1))",
                                 "test_training.py::test_cross_entropy_grad"),
    "layer_norm_eps_1e_5": ("tensor.py", "* scale + 1e-6", "* scale + 1e-5",
                            "test_cli.py::test_fused_ops_train_the_checkpoint_their_primitive_chains_train"),
    "res_attn_scale": ("tuners.py", "return self.rank**-0.5", "return self.rank**-1.0",
                       "test_tuners.py::test_res_attn_matches_loop_oracle"),
    "prefix_scale": ("tuners.py", "cfg.head_dim**-0.5, kv=(self.K", "cfg.head_dim**-1.0, kv=(self.K",
                     "test_tuners.py::test_prefix_matches_loop_oracle"),
    "block_tuner_reads_norm1": ("backbone.py", 'named["mha"] = block.norm1(x)', 'named["mha"] = named["block"] = block.norm1(x)',
                                "test_backbone.py::test_trained_tuner_delta_equals_tuner_forward"),
    # contracts: block add order, slot order, HEAD_ROWS, the CRC span, the echo
    "ffn_reads_norm1": ("backbone.py", 'named["ffn"] = block.norm2(u)', 'named["ffn"] = block.norm1(u)',
                        "test_backbone.py::test_block_matches_the_reference_block_bit_for_bit"),
    "block_delta_before_ffn_delta": (
        "backbone.py", 'y = y + _first_rows(delta("ffn"), rows)',
        'y, block_delta = y + (0.0 if block_delta is None else block_delta) + _first_rows(delta("ffn"), rows), None',
        "test_backbone.py::test_block_matches_the_reference_block_bit_for_bit"),
    "slots_in_alphabetical_order": ("tuners.py", "key=lambda s: (s[0], ATTACH_OPS.index(s[1]))", "key=lambda s: s",
                                    "test_tuners.py::test_attach_order_independent"),
    "attach_inserts_as_it_builds": ("tuners.py", "built[slot] = tuner", "built[slot] = model.tuners[slot] = tuner",
                                    "test_tuners.py::test_failed_attach_leaves_the_tuners_as_they_were"),
    "head_rows_1": ("backbone.py", "HEAD_ROWS = 2", "HEAD_ROWS = 1",
                    "test_backbone.py::test_model_forward_matches_the_reference_forward_bit_for_bit"),
    "recorded_forward_keeps_every_row": (
        "backbone.py", "rows = HEAD_ROWS if index == len(model.blocks) - 1 else None",
        "rows = HEAD_ROWS if index == len(model.blocks) - 1 and not is_grad_enabled() else None",
        "test_backbone.py::test_forward_without_graph_equals_the_recorded_forward_bit_for_bit"),
    "crc_skips_tensor_count": ("data_io.py", 'put(struct.pack("<I", len(tensors)))',
                               'f.write(struct.pack("<I", len(tensors)))',
                               "test_data_io.py::test_checkpoint_round_trip_forward_identical"),
    "echo_options_ignored": ("data_io.py", "[AttachSpec(**t) for t in", '[AttachSpec(**{**t, "options": {}}) for t in',
                             "test_data_io.py::test_checkpoint_echo_round_trips_non_default_options"),
    # attention's [L, heads*d] K and V
    "flat_kv_split_heads_first": ("tensor.py", "reshape(-1, heads, d).swapaxes(0, 1)", "reshape(heads, -1, d)",
                                  "test_tuners.py::test_prompt_matches_loop_oracle"),
    "flat_kv_grad_not_transposed": ("tensor.py", "g.swapaxes(0, 1).reshape(kv_shape)", "g.reshape(kv_shape)",
                                    "test_tensor.py::test_fused_op_grads_vs_finite_differences"),
    # a forward that records nothing: item blocks, block input, image widening, erf scratch
    "stream_skips_last_item_block": ("backbone.py", "for part in blocks]", "for part in blocks[:-1]]",
                                     "test_backbone.py::test_streamed_forward_equals_the_whole_batch_bit_for_bit"),
    "head_per_item_block": ("backbone.py", "self.head(concat([self._trunk(part)[:, 0, :]",
                            "(concat([self.head(self._trunk(part)[:, 0, :])",
                            "test_backbone.py::test_streamed_forward_equals_the_whole_batch_bit_for_bit"),
    "stream_budget_from_dim_alone": (
        "backbone.py", "STREAM_VALUES // (cfg.tokens * max(3, cfg.mlp_ratio) * cfg.dim)", "STREAM_VALUES // cfg.dim",
        "test_backbone.py::test_eval_mix_forward_without_graph_keeps_each_tensor_until_its_last_reader"),
    "caller_pins_block_input": ("backbone.py", "block_forward(self, i, named)", "block_forward(self, i, dict(named))",
                                "test_backbone.py::test_eval_mix_forward_without_graph_keeps_each_tensor_until_its_last_reader"),
    "block_pins_its_input": ("backbone.py", "    del x  # and so does", "    pass  # and so does",
                             "test_backbone.py::test_eval_mix_forward_without_graph_keeps_each_tensor_until_its_last_reader"),
    "eval_widens_images_before_the_cut": (
        "training.py", "model(dataset.images[idx])", "model(dataset.images[idx].astype(np.float64))",
        "test_backbone.py::test_eval_mix_batch_widens_its_images_once_at_the_patch_cut"),
    "recorded_gelu_third_scratch_array": ("tensor.py", "range(3 if deriv is None else 2)", "range(3)",
                                          "test_tensor.py::test_recorded_gelu_takes_two_scratch_slices"),
    # RTDS files validated a chunk at a time and read a batch at a time
    "batch_read_buffers_whole_runs": ("data_io.py", "_READ_BYTES = 1 << 16", "_READ_BYTES = 1 << 20",
                                    "test_data_io.py::test_a_batch_read_holds_its_pixels_once_and_one_record_buffer"),
    "validation_scans_first_chunk_only": ("data_io.py", "for lo in range(0, count, len(chunk)):",
                                          "for lo in range(0, len(chunk), len(chunk)):",
                                          "test_data_io.py::test_every_chunk_is_checked_and_a_bad_label_wins_over_a_bad_pixel"),
    "pixel_error_before_a_later_label": ("data_io.py", "pixel_error = e", "raise",
                                         "test_data_io.py::test_every_chunk_is_checked_and_a_bad_label_wins_over_a_bad_pixel"),
    "finite_check_drops_its_chunk_offset": ("data_io.py", "i = lo + int(bad[0])", "i = int(bad[0])",
                                            "test_data_io.py::test_every_chunk_is_checked_and_a_bad_label_wins_over_a_bad_pixel"),
    "batch_read_drops_short_read_check": ("data_io.py", "raise _truncated(first + got // size, size)", "pass",
                                          "test_data_io.py::test_a_file_changed_after_its_load_fails_the_batch_that_reads_it"),
    "runs_in_sorted_order": ("data_io.py", "rows = np.asarray(idx)", "rows = np.sort(idx)",
                             "test_data_io.py::test_loaded_images_are_the_files_float32_and_train_like_their_float64_widening"),
    # an RTDS save: its records held once, every label checked
    "save_copies_its_records": ("data_io.py", "f.write(rec)", "f.write(rec.tobytes())",
                                "test_data_io.py::test_save_binary_dataset_holds_its_records_once"),
    "save_skips_the_label_check": (
        "data_io.py", "(ds.labels < 0) | (ds.labels >= ds.num_classes)", "ds.labels != ds.labels",
        "test_data_io.py::test_save_dataset_rejects_a_label_out_of_range_before_writing"),
}

# name: (module, text, mutant text, why no test is expected to kill it)
EQUIVALENT = {
    "matrix_probe_one_image": (
        "cli.py", "model(images[:2]).data", "model(images[:1]).data",
        "the frozen logits and every cell's probe read the same rows, and a tuner that is not "
        "zero at init changes the first image's logits as well as the second's",
    ),
}


SUITE = ["tests", "--ignore=tests/test_kernels.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_runs")


def run(name: str, module: str, text: str, mutant: str, tests: list) -> int:
    """pytest's exit code for the tests, with the mutant applied in a
    temporary copy: 0 if they pass, 1 if one fails."""
    with tempfile.TemporaryDirectory(prefix="restuner-mutant-") as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = tree / "src" / "restuner" / module
        source = path.read_text()
        if source.count(text) != 1:
            raise SystemExit(f"{name}: {text!r} occurs {source.count(text)} times in {module}")
        path.write_text(source.replace(text, mutant))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main(argv) -> int:
    suite = "--suite" in argv
    names = [a for a in argv if a != "--suite"] or list(MUTANTS)
    bad = 0
    for name in names:
        equivalent = name in EQUIVALENT
        module, text, mutant, killer = (EQUIVALENT if equivalent else MUTANTS)[name]
        code = run(name, module, text, mutant, SUITE if suite or equivalent else [f"tests/{killer}"])
        verdict = {0: "survived (equivalent)" if equivalent else "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
        bad += verdict not in ("killed", "survived (equivalent)")
        print(f"{verdict:22s} {name:36s} {module}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
